"""Invariances of the population step and of sample EM.

Any correct operator has these symmetries, on inputs the verify configs
never reach:

* population step (``PopulationStep.at``), for every built-in family and K
  from 1 to 4: permuting the components of the truth and of the probe
  permutes ``M_gamma``; for gmm, translating truth and probe by c
  translates it by c, and the reflection y -> -y (theta -> -theta with the
  components reversed) reflects it; ``expfam(gaussian)`` is ``gmm``; and
  ``sym2`` is ``gmm`` at a symmetric truth and probe;
* sample EM (``run_em``): shuffling the unlabeled rows, relabeling the
  components or duplicating every row leaves the final theta unchanged
  (permuted, for a relabeling);
* the CLI, on the gmm3 and poisson2 benchmark configs: permuting a
  config's components (``model.theta_star``, ``model.pi`` and
  ``em.theta0`` together) permutes ``population``'s ``final_theta`` and
  keeps every ``verify`` pass flag, check names mapped through k.
  ``simulate`` is left out: the sampler draws one component at a time, so
  a permuted config samples another dataset.

Tolerances.  u = eps / 2.  Where both sides run the same code path on the
same floats, the results are asserted equal bit for bit, and the test says
why the path is the same.  Elsewhere each side's distance to its exact
value is bounded, the exact values are related exactly by the symmetry,
and the assertion adds the two bounds (plus the rounding of the test's own
map, such as subtracting c).

Population step.  ``expect`` meets ``abs_tol`` (tau) for every moment
``E[q_k]`` and ``E[q_k t(Y)]`` against the integral over the truncation
window: the integrator's contract on a continuous support.  On an integer
support the window is summed, exact but for rounding: with log-means at
most 2 the window ends by y = 41, so at probes up to 2.5 the posterior's
relative error is at most 32uM + 13u with M < 120
(``tests/test_posterior.py``), 4.3e-13, the density's is a few u times
its log terms (below 250), about 1.1e-13, and a moment (at most 41) is
within 2.3e-11 < tau.  The symmetries
move the window exactly: its ends are the min and max of ``alpha'(theta*_k)
-+ 12 sigma_k``, which permutation leaves alone, negation mirrors (IEEE
rounding is symmetric) and, with the dyadic inputs drawn here (multiples
of 2^-10), translation moves exactly.  So the exact moments of the two
sides map onto each other exactly, quadrature panels may move, and the
update's error follows from tau through its ratio:

* ``num_j = (1 - gamma) E[q_j t] + gamma pi_j alpha'(theta*_j)`` is within
  ``(1 - gamma) tau + 8u((1 - gamma)|E[q_j t]| + gamma |pi_j alpha'|)``:
  the rounding of ``1 - gamma``, of two products, of ``alpha'`` (at most
  2 ulp) and of the sum, each at most 2u of its operand; ``den_j`` alike;
* over the tie, ``n = sum a_j num_j`` and ``d = sum a_j^2 den_j`` add the
  weighted errors and u of each partial sum;
* ``mu = n / d`` is within ``dmu = (dn + |mu| dd) / (|d| - dd) + u|mu|``;
* ``theta_k = a_k alpha'^{-1}(mu)`` with ``alpha'^{-1}`` monotone: the
  exact and the computed value both lie in the image of ``[mu - dmu, mu +
  dmu]``, widened by 4 ulp at each end for the closed-form inverse's own
  rounding.

Sample EM.  Each run's final iterate ``theta_hat = T~(theta_prev)`` moved
by ``d < tol``.  Shuffling, relabeling and duplicating leave the data's
empirical distribution (relabeled) alone, so the exact-arithmetic M-step T
of both sides is one map (conjugated by the permutation).  Let ``e`` bound
``|T~(theta) - T(theta)|`` and let T be a contraction with constant rho
near its fixed point f, in a weighted max norm ``max_k |x_k| / w_k``.  Then ``|theta_hat - f| <= e + rho
(d + |theta_hat - f|)``, so ``|theta_hat - f| <= (e + rho d) / (1 - rho)``
for each side, and the final thetas differ by at most the sum of both.

* ``e`` comes from the E-step sums ``S_k`` and ``N_k``: each is within
  16 eps x (the sum of its terms' absolute values) of the exactly rounded
  sum of its rounded terms (the bound ``TestBlockedEStep`` uses; at most
  30 labeled points keep their recursive sum inside it), a term is
  within u of the product of the computed responsibility, and the
  responsibility is within ``expm1(2E + (K + 9)u) q + 4 x 2^-1074`` of the
  exact one (``tests/test_posterior.py``, with ``E = 16uM`` and ``M =
  max_j(|theta_j t(y)| + |log pi_j| + |alpha(theta_j)|)``).  The update's
  error then follows through its ratio as above.
* rho is the norm of T's Jacobian J at ``theta_hat``, by central
  differences of ``m_step`` (step 1e-5: truncation and rounding move it by
  about 1e-9, which moves the bound by a relative 1e-9 / (1 - rho)).  Any
  weights w > 0 give a valid norm; the Perron vector of ``|J|`` makes rho
  the spectral radius of ``|J|`` (the plain max norm can exceed 1 where EM
  contracts, as for two exponential components of different scales).  The
  last step starts within 1e-12 of ``theta_hat``, where the Jacobian is
  constant to first order.

Population EM (the ``population`` command) is bounded as sample EM is,
with ``e`` the width of the last step's update from the quadrature
tolerance (above) and rho from a central difference (step 1e-4) of the
population step, each entry of J widened by the update widths of its two
steps over 2h: the quadrature's share of the difference.  Its truncation
error, of order h^2 times M's third derivative (about 1e-8 here), moves the
bound by a relative 1e-8 / (1 - rho).

Where only rounding moves the two sides (panels that stay put, a reordered
sum), they agree to about 1e-15; the bounds above are larger because they
also cover the panels moving and the stopping rule.
"""

import json
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssem import em
from ssem.cli import main
from ssem.config import build_run_config, load_config_file
from ssem.em import EmConfig, run_em
from ssem.model import (
    MixtureParams,
    ModelKind,
    exponential_spec,
    gaussian_spec,
    poisson_spec,
    responsibilities,
)
from ssem.population import PopulationModel, PopulationStep
from ssem.sampling import Dataset, SampleConfig, sample_dataset

U = np.finfo(float).eps / 2
EPS = np.finfo(float).eps
TINY = 2.0 ** -1074

GMM = ModelKind.gmm()
SYM2 = ModelKind.sym2()

# name: (kind, range of theta*_k, as multiples of 2^-10).  Probes lie
# within 0.5 of the truth; the exponential range keeps them below 0.
FAMILIES = {
    "gmm": (GMM, (-3.0, 3.0)),
    "gaussian": (ModelKind.expfam(gaussian_spec()), (-3.0, 3.0)),
    "poisson": (ModelKind.expfam(poisson_spec()), (-1.0, 2.0)),
    "exponential": (ModelKind.expfam(exponential_spec()), (-4.0, -0.6)),
}


def dyadic(lo, hi):
    """Floats in [lo, hi] that are multiples of 2^-10: sums of a few of
    them are exact."""
    return st.integers(int(lo * 1024), int(hi * 1024)).map(lambda i: i / 1024)


@st.composite
def population_case(draw, names=tuple(FAMILIES), K=(1, 4)):
    """A family, a truth, a probe near it and a labeled fraction."""
    name = draw(st.sampled_from(names))
    kind, (lo, hi) = FAMILIES[name]
    K = draw(st.integers(*K))
    star = draw(st.lists(dyadic(lo, hi), min_size=K, max_size=K))
    weights = np.array(draw(st.lists(st.integers(1, 16), min_size=K,
                                     max_size=K)), dtype=float)
    offsets = draw(st.lists(dyadic(-0.5, 0.5), min_size=K, max_size=K))
    gamma = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9]))
    truth = MixtureParams(weights / weights.sum(), star)
    return kind, truth, truth.with_theta(np.add(star, offsets)), gamma


def step_at(kind, truth, probe, gamma):
    return PopulationStep.at(PopulationModel(kind, truth, gamma), probe)


def inverse_width(kind, k, n, d, dn, dd):
    """The width of the interval that holds both the exact and the
    computed ``theta_k`` of a tie solved from ``n`` and ``d``, which lie
    within ``dn`` and ``dd`` of exact (module docstring)."""
    a_k = dict(kind.tie(k))[k]
    mu = n / d
    dmu = (dn + abs(mu) * dd) / (abs(d) - dd) + U * abs(mu)
    ends = [a_k * kind.theta_from_mean(m, x0=0.0) for m in (mu - dmu, mu + dmu)]
    return abs(ends[1] - ends[0]) + 8 * np.spacing(max(map(abs, ends)))


def tie_width(kind, k, num, den, dnum, dden):
    """:func:`inverse_width` for component k from per-component moments
    ``num_j``, ``den_j`` within ``dnum_j``, ``dden_j`` of exact, summed over
    k's tie as ``ModelKind.tied_update`` sums them."""
    n = d = dn = dd = 0.0
    for j, a in kind.tie(k):
        n += a * num[j]
        d += a * a * den[j]
        dn += abs(a) * dnum[j] + U * abs(n)
        dd += a * a * dden[j] + U * abs(d)
    return inverse_width(kind, k, n, d, dn, dd)


def update_width(step, k):
    """How far ``step.m_gamma(k)`` may lie from its exact value, from the
    quadrature tolerance (module docstring)."""
    pm = step.pm
    g, tau = pm.gamma, pm.scheme.abs_tol
    labeled_t, labeled_q = pm._labeled_moments
    parts = [((1 - g) * step.e_qt[j], g * labeled_t[j], (1 - g) * step.e_q[j],
              g * labeled_q[j]) for j in range(pm.theta_star.K)]
    return tie_width(
        pm.kind, k, [a + b for a, b, _, _ in parts], [c + e for _, _, c, e in parts],
        [(1 - g) * tau + 8 * U * (abs(a) + abs(b)) for a, b, _, _ in parts],
        [(1 - g) * tau + 8 * U * (abs(c) + abs(e)) for _, _, c, e in parts])


class TestPopulationStep:
    @given(case=population_case(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_permutation_permutes_m_gamma(self, case, data):
        kind, truth, probe, gamma = case
        perm = data.draw(st.permutations(range(truth.K)))

        def permuted(p):
            return MixtureParams(p.pi[perm], p.theta[perm])

        a = step_at(kind, truth, probe, gamma)
        b = step_at(kind, permuted(truth), permuted(probe), gamma)
        for j, k in enumerate(perm):
            assert abs(b.m_gamma(j) - a.m_gamma(k)) <= (
                update_width(a, k) + update_width(b, j))

    @given(case=population_case(names=("gmm",)), c=dyadic(-10.0, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_gmm_translation_equivariant(self, case, c):
        kind, truth, probe, gamma = case
        a = step_at(kind, truth, probe, gamma)
        b = step_at(kind, truth.with_theta(truth.theta + c),
                    probe.with_theta(probe.theta + c), gamma)
        for k in range(truth.K):
            moved = b.m_gamma(k) - c
            assert abs(moved - a.m_gamma(k)) <= (
                update_width(a, k) + update_width(b, k) + U * abs(moved))

    @given(case=population_case(names=("gmm",)))
    @settings(max_examples=25, deadline=None)
    def test_gmm_reflection(self, case):
        kind, truth, probe, gamma = case

        def reflected(p):
            return MixtureParams(p.pi[::-1], -p.theta[::-1])

        a = step_at(kind, truth, probe, gamma)
        b = step_at(kind, reflected(truth), reflected(probe), gamma)
        K = truth.K
        for k in range(K):
            gap = b.m_gamma(K - 1 - k) + a.m_gamma(k)
            assert abs(gap) <= (update_width(a, k) + update_width(b, K - 1 - k)
                                + U * abs(gap))

    @given(case=population_case(names=("gmm",)))
    @settings(max_examples=25, deadline=None)
    def test_expfam_gaussian_is_gmm_bit_for_bit(self, case):
        # Same code path: both kinds read a ``gaussian_spec()`` family whose
        # callables are the same code, neither ties its components, and
        # both invert the mean function in closed form (the identity), so
        # every integral and update sees the same floats.
        _, truth, probe, gamma = case
        a = step_at(GMM, truth, probe, gamma)
        b = step_at(FAMILIES["gaussian"][0], truth, probe, gamma)
        assert np.array_equal(a.e_q, b.e_q) and np.array_equal(a.e_qt, b.e_qt)
        assert ([a.m_gamma(k) for k in range(truth.K)]
                == [b.m_gamma(k) for k in range(truth.K)])

    @given(star=dyadic(0.0, 4.0), offset=dyadic(-0.5, 0.5),
           gamma=st.sampled_from([0.0, 0.1, 0.5, 0.9]))
    @settings(max_examples=25, deadline=None)
    def test_sym2_is_gmm_at_a_symmetric_pair(self, star, offset, gamma):
        truth = MixtureParams.symmetric(star)
        probe = MixtureParams.symmetric(star + offset)
        a = step_at(GMM, truth, probe, gamma)
        b = step_at(SYM2, truth, probe, gamma)
        # Same code path up to the update: both kinds integrate the rows
        # [q, q t] of the unit Gaussian at the same truth and probe.
        assert np.array_equal(a.e_q, b.e_q) and np.array_equal(a.e_qt, b.e_qt)
        # The window is symmetric, so the exact moments are: the tied
        # update (S_1 - S_0) / (N_0 + N_1) and gmm's S_k / N_k are equal.
        for k in (0, 1):
            assert abs(b.m_gamma(k) - a.m_gamma(k)) <= (
                update_width(a, k) + update_width(b, k))


# Sample EM.  name: (kind, truth for K components).  Components are far
# enough apart, with a fifth of the points labeled, for EM to contract.
def _gmm_truth(K):
    return MixtureParams(np.full(K, 1.0 / K), 3.5 * (np.arange(K) - (K - 1) / 2))


SAMPLE_FAMILIES = {
    "gmm": (GMM, _gmm_truth, 4),
    "gaussian": (FAMILIES["gaussian"][0], _gmm_truth, 4),
    "sym2": (SYM2, lambda K: MixtureParams.symmetric(2.0), 2),
    "poisson": (FAMILIES["poisson"][0],
                lambda K: MixtureParams(np.full(K, 1.0 / K), 1.4 * np.arange(K)), 3),
    "exponential": (FAMILIES["exponential"][0],
                    lambda K: MixtureParams(np.full(K, 1.0 / K),
                                            -0.3 * 6.0 ** np.arange(K)), 2),
}
SAMPLE_M, SAMPLE_N = 30, 120
RUN = EmConfig(max_iters=500, tol=1e-12, record_trajectory=False)


@st.composite
def sample_case(draw, names=tuple(SAMPLE_FAMILIES)):
    name = draw(st.sampled_from(names))
    kind, truth_of, max_k = SAMPLE_FAMILIES[name]
    K = 2 if name == "sym2" else draw(st.integers(1, max_k))
    truth = truth_of(K)
    data = sample_dataset(kind, truth, SampleConfig(
        seed=draw(st.integers(0, 2 ** 32)), m=SAMPLE_M, n=SAMPLE_N))
    return name, kind, truth, data


def statistics_error(kind, data, theta):
    """The E-step statistics ``(S, N)`` at ``theta`` and bounds on their
    distance to the exact sums (module docstring)."""
    K, t = theta.K, kind.family.t
    S, N = em._sufficient_statistics(
        kind, theta, em._labeled_statistics(kind, data, K), em._unlabeled(data))
    values, counts = em._unlabeled(data)
    c = np.ones_like(values) if counts is None else counts
    ty = np.abs(np.asarray(t(values), dtype=float))
    q = responsibilities(kind, theta, values).T
    logs = (np.abs(np.multiply.outer(theta.theta, ty))
            + np.abs(np.log(theta.pi))[:, None]
            + np.abs(np.asarray(kind.family.alpha(theta.theta)))[:, None])
    rel = np.expm1(2 * 16 * U * logs.max(axis=0) + (K + 9) * U)
    q_hi = ((q + 4 * TINY) / (1 - rel)) * (1 + rel) + 4 * TINY
    q_err = rel * q_hi + 4 * TINY
    x, ly = data.labeled_x, np.abs(np.asarray(t(data.labeled_y), dtype=float))
    labeled_abs = np.bincount(x, weights=ly, minlength=K)
    labeled_count = np.bincount(x, minlength=K)
    dS = (16 * EPS + 2 * U) * (q_hi @ (c * ty) + labeled_abs) + q_err @ (c * ty)
    dN = (16 * EPS + 2 * U) * (q_hi @ c + labeled_count) + q_err @ c
    return S, N, dS, dN


def map_error(kind, data, theta):
    """Per component, a bound on the distance of ``m_step(kind, data,
    theta)`` from the exact-arithmetic M-step."""
    S, N, dS, dN = statistics_error(kind, data, theta)
    return np.array([tie_width(kind, k, S, N, dS, dN) for k in range(theta.K)])


def contraction(kind, data, theta, h=1e-5):
    """``(rho, w)``: weights ``w > 0`` and the constant ``rho`` of the
    M-step's Jacobian J at ``theta`` in the norm ``max_k |x_k| / w_k``,
    ``rho = max_i (|J| w)_i / w_i``, any positive w giving a valid one.  J
    is taken by central differences; w is the Perron vector of ``|J|``,
    which makes rho the spectral radius of ``|J|``.  For sym2, whose
    components move together, J is the derivative of the free
    parameter."""
    if kind.tag == "sym2":
        phi = theta.sym2_scalar()
        up, down = (em.m_step(kind, data, MixtureParams.symmetric(phi + s * h))
                    for s in (1, -1))
        return abs(up.sym2_scalar() - down.sym2_scalar()) / (2 * h), np.ones(2)
    columns = []
    for j in range(theta.K):
        up, down = (em.m_step(kind, data, theta.with_theta(
            theta.theta + s * h * np.eye(theta.K)[j])) for s in (1, -1))
        columns.append((up.theta - down.theta) / (2 * h))
    a = np.abs(np.array(columns).T)
    values, vectors = np.linalg.eig(a)
    w = np.abs(vectors[:, np.argmax(np.abs(values))].real)
    w = np.maximum(w, 1e-6 * w.max())
    return float(np.max(a @ w / w)), w


def final_gap_bound(kind, runs, rho):
    """The bound of the module docstring on the distance of the two runs'
    final thetas, in the norm of ``w``: each run comes with the weights in
    its own component order."""
    assert rho < 1.0  # the premise: EM contracts here
    total = 0.0
    for data, traj, w in runs:
        assert traj.converged
        prev = traj.iterates[-2]
        d = np.max(np.abs(traj.final.theta - prev.theta) / w)
        total += (np.max(map_error(kind, data, prev) / w) + rho * d) / (1.0 - rho)
    return total


def run(kind, data, theta0):
    return run_em(kind, data, theta0, RUN)


class TestSampleEm:
    def check_unchanged(self, kind, truth, a, b, perm=None):
        """Run EM on datasets ``a`` and ``b`` from near the truth (permuted
        by ``perm`` for ``b``) and bound the gap of the final thetas."""
        theta0 = truth.with_theta(1.1 * truth.theta)
        perm = np.arange(truth.K) if perm is None else np.asarray(perm)
        ta = run(kind, a, theta0)
        tb = run(kind, b, MixtureParams(theta0.pi[perm], theta0.theta[perm]))
        rho, w = contraction(kind, a, ta.final)
        bound = final_gap_bound(kind, [(a, ta, w), (b, tb, w[perm])], rho)
        gap = np.abs(tb.final.theta - ta.final.theta[perm])
        assert np.all(gap <= bound * w[perm])
        return ta, tb

    @given(case=sample_case(), seed=st.integers(0, 2 ** 32))
    @settings(max_examples=20, deadline=None)
    def test_shuffled_unlabeled_rows(self, case, seed):
        name, kind, truth, data = case
        order = np.random.default_rng(seed).permutation(data.n)
        shuffled = Dataset(data.labeled_x, data.labeled_y,
                           data.unlabeled_y[order])
        ta, tb = self.check_unchanged(kind, truth, data, shuffled)
        if name == "poisson":
            # Same code path: an integer sample reaches the E-step only as
            # its sorted distinct values and their counts, which a shuffle
            # leaves alone.
            assert np.array_equal(ta.final.theta, tb.final.theta)

    @given(case=sample_case())
    @settings(max_examples=20, deadline=None)
    def test_duplicated_rows(self, case):
        name, kind, truth, data = case
        twice = Dataset(np.tile(data.labeled_x, 2), np.tile(data.labeled_y, 2),
                        np.tile(data.unlabeled_y, 2))
        ta, tb = self.check_unchanged(kind, truth, data, twice)
        if name == "poisson":
            # Same code path, every statistic doubled: the labeled sums add
            # integers, exact in any order, and each distinct value's count
            # doubles; scaling by 2 commutes with rounding, so every S_k /
            # N_k is the same float.
            assert np.array_equal(ta.final.theta, tb.final.theta)

    @given(case=sample_case(names=("gmm", "gaussian", "poisson", "exponential")),
           data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_relabeled_components(self, case, data):
        _, kind, truth, ds = case
        perm = np.array(data.draw(st.permutations(range(truth.K))))
        relabeled = Dataset(np.argsort(perm)[ds.labeled_x], ds.labeled_y,
                            ds.unlabeled_y)
        self.check_unchanged(kind, truth, ds, relabeled, perm)


# name: the permutation applied to its components (component j of the
# permuted config is component perm[j] of the original).
CLI_CASES = {"gmm3.cfg": [2, 0, 1], "poisson2.cfg": [1, 0]}
CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"


def run_cli(command, config, perm, out):
    """``ssem <command>`` on a benchmark config with its components taken
    in the order ``perm``; returns the exit code and the run's config."""
    raw = load_config_file(CONFIGS / config)
    cfg = build_run_config(raw)
    values = {"model.theta_star": cfg.theta_star.theta,
              "model.pi": cfg.theta_star.pi, "em.theta0": cfg.theta0.theta}
    values = {key: v[perm].tolist() for key, v in values.items()}
    sets = [f"--set={key}={','.join(map(repr, v))}"
            for key, v in values.items()]
    code = main([*command, "--config", str(CONFIGS / config),
                 "--out", str(out), *sets])
    return code, build_run_config({**raw, **values})


def population_contraction(pm, theta, h=1e-4):
    """``(rho, w)`` as :func:`contraction` gives them, for the population
    step of ``pm`` at ``theta``: J by central differences, each entry
    widened by the update widths of its two steps over 2h (module
    docstring)."""
    K = theta.size
    a = np.empty((K, K))
    for j in range(K):
        steps = [PopulationStep.at(pm, pm.theta_star.with_theta(
            theta + s * h * np.eye(K)[j])) for s in (1, -1)]
        up, down = ([st.m_gamma(k) for k in range(K)] for st in steps)
        widths = [update_width(steps[0], k) + update_width(steps[1], k)
                  for k in range(K)]
        a[:, j] = (np.abs(np.subtract(up, down)) + widths) / (2 * h)
    values, vectors = np.linalg.eig(a)
    w = np.abs(vectors[:, np.argmax(np.abs(values))].real)
    w = np.maximum(w, 1e-6 * w.max())
    return float(np.max(a @ w / w)), w


def population_gap_bound(runs, rho):
    """:func:`final_gap_bound` for population runs ``(pm, prev, final,
    w)``: ``final`` is the step from ``prev``, whose error is its update
    width."""
    assert rho < 1.0  # the premise: EM contracts here
    total = 0.0
    for pm, prev, final, w in runs:
        step = PopulationStep.at(pm, pm.theta_star.with_theta(prev))
        widths = np.array([update_width(step, k) for k in range(prev.size)])
        # The last row is the step from the one before it, bit for bit.
        assert [step.m_gamma(k) for k in range(prev.size)] == final.tolist()
        d = np.max(np.abs(final - prev) / w)
        total += (np.max(widths / w) + rho * d) / (1.0 - rho)
    return total


class TestCli:
    @pytest.mark.parametrize("config", CLI_CASES)
    def test_population_final_theta_permuted(self, config, tmp_path):
        perm = np.array(CLI_CASES[config])
        runs = []
        for side in (np.arange(perm.size), perm):
            out = tmp_path / "".join(map(str, side))
            code, cfg = run_cli(["population"], config, side, out)
            assert code == 0
            summary = json.loads((out / "summary.json").read_text())
            assert summary["converged"]
            final = np.array(summary["final_theta"])
            thetas = np.loadtxt(out / "trajectory.csv", delimiter=",",
                                skiprows=1, usecols=range(1, perm.size + 1),
                                ndmin=2)
            assert np.array_equal(thetas[-1], final)
            runs.append([cfg.population_model(), thetas[-2], final])
        rho, w = population_contraction(runs[0][0], runs[0][2])
        runs[0].append(w)
        runs[1].append(w[perm])
        bound = population_gap_bound(runs, rho)
        gap = np.abs(runs[1][2] - runs[0][2][perm])
        assert np.all(gap <= bound * w[perm])

    @pytest.mark.parametrize("config", CLI_CASES)
    def test_verify_pass_flags_kept(self, config, tmp_path):
        perm = CLI_CASES[config]
        results = []
        for side in (list(range(len(perm))), perm):
            out = tmp_path / "".join(map(str, side))
            code, _ = run_cli(["verify", "all"], config, side, out)
            report = json.loads((out / "verify_all.json").read_text())
            # A check on component j of this run is one on component
            # side[j] of the original config.
            results.append((code, Counter(
                (re.sub(r"k=(\d+)", lambda m: f"k={side[int(m[1])]}",
                        c["name"]), c["pass"]) for c in report["checks"])))
        assert results[0] == results[1]
