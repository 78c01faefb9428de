"""Self-test of the formulas the benchmark's output checks rely on.

    python3 -m pytest benchmarks/test_checks.py -q

The closed forms are checked against brute-force computations written
here (a finite-difference solve, the Riccati ODE, quadrature), and the BL
certificate checker against a certificate built by hand.
"""

import json
import os
import sys

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402


def _feynman_kac_fd(t_end, dt=1e-3, half_width=15.0, nodes=1501):
    """Unnormalized density of linear-bm: dv/dt = v_xx + x v, v(0) = N(0, 1).

    Strang splitting of the exact reaction exp(x dt / 2) around a
    Crank-Nicolson diffusion step with zero Dirichlet ends.
    """
    x = np.linspace(-half_width, half_width, nodes)
    dx = x[1] - x[0]
    v = checks.gaussian_pdf(x, 0.0, checks.S0_SQ)
    steps = int(round(t_end / dt))
    r = dt / (2 * dx * dx)
    ab = np.zeros((3, nodes))
    ab[0, 1:] = -r
    ab[1, :] = 1 + 2 * r
    ab[2, :-1] = -r
    half = np.exp(0.5 * dt * x)
    for _ in range(steps):
        v = v * half
        rhs = (1 - 2 * r) * v
        rhs[1:] += r * v[:-1]
        rhs[:-1] += r * v[1:]
        v = scipy.linalg.solve_banded((1, 1), ab, rhs) * half
    return x, v


@pytest.mark.parametrize("t", [0.25, 0.5])
def test_linear_bm_density_and_mass_against_finite_differences(t):
    x, v = _feynman_kac_fd(t)
    mass = checks.trapezoid(v, x)
    assert mass == pytest.approx(float(checks.linear_bm_mass(t)), rel=1e-4)
    mean, var = checks.linear_bm_moments(t)
    exact = checks.gaussian_pdf(x, mean, var)
    assert np.abs(v / mass - exact).max() / exact.max() < 1e-4


def test_cir_bond_price_against_riccati_ode():
    a, b, sigma = checks.CIR["a"], checks.CIR["b"], checks.CIR["sigma"]

    def rhs(_, y):
        B, log_a = y
        return [1.0 + b * B - 0.5 * sigma ** 2 * B * B, -a * B]

    ts = np.array([0.01, 0.04, 0.25, 1.0])
    sol = scipy.integrate.solve_ivp(rhs, (0.0, 1.0), [0.0, 0.0], t_eval=ts,
                                    rtol=1e-12, atol=1e-14)
    A, B = checks.cir_bond_AB(ts)
    np.testing.assert_allclose(B, sol.y[0], rtol=1e-9)
    np.testing.assert_allclose(A, np.exp(sol.y[1]), rtol=1e-9)


@pytest.mark.parametrize("t", [0.01, 0.04, 0.5])
def test_cir_mass_against_quadrature_over_the_initial_law(t):
    shape, rate = checks.CIR["shape"], checks.CIR["rate"]
    A, B = checks.cir_bond_AB(t)
    dens = lambda x: rate ** shape * x ** (shape - 1) * np.exp(-rate * x)  # gamma(2, 2)
    norm, _ = scipy.integrate.quad(dens, 0, np.inf)
    val, _ = scipy.integrate.quad(lambda x: A * np.exp(-B * x) * dens(x), 0, np.inf,
                                  epsabs=1e-14, epsrel=1e-12)
    assert norm == pytest.approx(1.0, rel=1e-12)
    assert float(checks.cir_mass(t)) == pytest.approx(val, rel=1e-10)


def _dirac_certificate():
    # unit Diracs at 0 and 1, x0 = 0: d_star = min(1, l(0) + l(1)) = 1, so
    # s = d / (2 + d) = 1/3, lip = 2 / (2 + d) = 2/3, value 2 d / (2 + d)
    atoms = np.array([0.0, 1.0])
    psi = np.array([1 / 3, -1 / 3, 0.0])          # star value last
    delta = np.array([1.0, -1.0, 0.0])
    return atoms, psi, 1 / 3, 2 / 3, delta, 2 / 3


def test_certificate_checker_accepts_the_hand_built_optimum():
    viol, gap = checks.bl_certificate_gaps(*_dirac_certificate())
    assert viol <= 1e-15 and gap <= 1e-15


@pytest.mark.parametrize("change", ["psi_above_s", "lip_too_small", "star_too_far",
                                    "budget", "value"])
def test_certificate_checker_rejects_broken_certificates(change):
    atoms, psi, s, lip, delta, value = _dirac_certificate()
    psi = psi.copy()
    if change == "psi_above_s":
        psi[0] += 1e-6
    elif change == "lip_too_small":
        lip -= 1e-6
    elif change == "star_too_far":
        psi[2] = 0.5
    elif change == "budget":
        s += 1e-6
    else:
        value += 1e-6
    viol, gap = checks.bl_certificate_gaps(atoms, psi, s, lip, delta, value)
    assert max(viol, gap) > checks.CERT_TOL


def test_program_certificates_pass_the_checker():
    from repmut.metric import CompactifiedMeasure, bl_distance
    gen = np.random.default_rng(3)
    for _ in range(5):
        mu = CompactifiedMeasure(gen.normal(size=(6, 1)), np.full(6, 0.15))
        nu = CompactifiedMeasure(gen.normal(size=(5, 1)), np.full(5, 0.19))
        res = bl_distance(mu, nu)
        viol, gap = checks.bl_certificate_gaps(res.atoms[:, 0], res.psi, res.s, res.lip,
                                               res.meta["delta"], res.value)
        assert viol <= checks.CERT_TOL and gap <= checks.CERT_TOL


def test_tracer_self_time_and_removal():
    import repmut.cli as cli
    from tracer import Tracer

    tr = Tracer()
    inner = tr.wrap("inner", lambda: sum(range(20000)))
    outer = tr.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    calls, total, self_s = tr.spans["outer"]
    assert calls == 1 and tr.calls("inner") == 3
    assert self_s == pytest.approx(total - tr.total("inner"), abs=1e-12)

    original = cli.solve_rm_pde
    tr.install()
    assert cli.solve_rm_pde is not original
    assert tr.remove() == [] and cli.solve_rm_pde is original


def test_benchmark_json_matches_the_runner():
    import run
    from workloads import WORKLOADS

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer_units = {name: unit for name, (unit, _) in run.PER_LAYER.items()}
    layer_units.update({"import.repmut_s": "s", "trace.overhead_s": "s",
                        "trace.coverage": "ratio"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units
