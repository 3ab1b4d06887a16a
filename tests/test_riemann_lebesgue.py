import numpy as np
import pytest

from daslab import model, riemann_lebesgue
from daslab.exceptions import GapClosure, NonFiniteResult, OmegaZero
from daslab.linalg import operator_norm
from daslab.model import AdiabaticPath, HermitianOperator, linear_schedule, path_at
from daslab.eigenframes import gamma_expansion
from daslab.evolve import EvolutionSpec
from daslab.riemann_lebesgue import (
    RESONANCE_THRESHOLD,
    OscillatorySumSpec,
    cumulative_simpson,
    difference_quotient,
    discrete_frequency,
    oscillatory_integral,
    oscillatory_sum,
    robust_adiabatic_bound,
    simpson,
    sum_bounds,
    total_variation,
)


def ones(s):
    return np.ones_like(np.asarray(s, dtype=float))


def closed_form_magnitude(total_time, steps):
    """|J| for f = 1, lambda = 1 from the geometric series."""
    num = abs(1 - np.exp(-1j * total_time))
    den = steps * abs(1 - np.exp(-1j * total_time / steps))
    return num / den


def random_smooth_pair(rng, lam_floor=0.5):
    """Random trig-polynomial amplitude and positive frequency on [0, 1]."""
    a = rng.normal(size=3) + 1j * rng.normal(size=3)
    b = rng.uniform(0.2, 1.0)
    phase = rng.uniform(0, 2 * np.pi)
    depth = rng.uniform(0.0, 0.7)

    def f(s):
        s = np.asarray(s, dtype=float)
        return a[0] + a[1] * np.cos(np.pi * s) + a[2] * np.sin(2.3 * s + 0.5)

    def lam(s):
        s = np.asarray(s, dtype=float)
        return lam_floor + b * (1.0 + depth * np.sin(2 * np.pi * s + phase))

    return f, lam


class TestOscillatorySum:
    def test_zero_amplitude(self):
        spec = OscillatorySumSpec(
            f=lambda s: np.zeros_like(np.asarray(s, float)), lam=ones,
            total_time=10.0, steps=50,
        )
        assert oscillatory_sum(spec) == 0

    @pytest.mark.parametrize("total_time,steps", [(13.7, 40), (91.3, 200), (5.0, 7)])
    def test_constant_case_closed_form(self, total_time, steps):
        spec = OscillatorySumSpec(f=ones, lam=ones, total_time=total_time, steps=steps)
        assert abs(oscillatory_sum(spec)) == pytest.approx(
            closed_form_magnitude(total_time, steps), abs=1e-14
        )

    def test_matches_continuum_at_large_steps(self):
        rng = np.random.default_rng(21)
        f, lam = random_smooth_pair(rng)
        total_time = 40.0
        spec = OscillatorySumSpec(f=f, lam=lam, total_time=total_time, steps=100_000)
        value = oscillatory_sum(spec)
        target = oscillatory_integral(f, lam, total_time)
        scale = float(np.abs(f(np.linspace(0, 1, 101))).max())
        assert abs(value - target) <= 1e-3 * scale

    def test_riemann_rate(self):
        rng = np.random.default_rng(23)
        f, lam = random_smooth_pair(rng)
        total_time = 60.0
        target = oscillatory_integral(f, lam, total_time)
        steps = np.array([2000, 4000, 8000, 16000, 32000])
        errs = np.array(
            [
                abs(
                    oscillatory_sum(
                        OscillatorySumSpec(f=f, lam=lam, total_time=total_time, steps=int(L))
                    )
                    - target
                )
                for L in steps
            ]
        )
        rate = -np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert 0.8 <= rate <= 1.2

    def test_resonance_periodicity(self):
        steps = 64
        for base in (0.7, 2.1):
            j1 = oscillatory_sum(
                OscillatorySumSpec(f=ones, lam=ones, total_time=base * steps, steps=steps)
            )
            j2 = oscillatory_sum(
                OscillatorySumSpec(
                    f=ones, lam=ones, total_time=(base + 2 * np.pi) * steps, steps=steps
                )
            )
            assert abs(abs(j1) - abs(j2)) <= 1e-12

    def test_resonant_sum_is_order_one(self):
        steps = 50
        spec = OscillatorySumSpec(
            f=ones, lam=ones, total_time=2 * np.pi * steps, steps=steps
        )
        assert abs(oscillatory_sum(spec)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            OscillatorySumSpec(
                f=ones, lam=lambda s: np.asarray(s, float) - 0.5, total_time=5.0, steps=10
            )


class TestDiscreteFrequency:
    def test_small_dt_limit(self):
        lam = 1.7
        assert abs(discrete_frequency(lam, 1e-8) - lam) <= 1e-6 * lam

    def test_full_period_cancellation(self):
        assert abs(discrete_frequency(2 * np.pi, 1.0)) <= 1e-12

    def test_modulus_formula(self):
        # |omega| = (2/dt) sin(lambda dt / 2)
        assert abs(discrete_frequency(1.0, 1.0)) == pytest.approx(
            2 * np.sin(0.5), abs=1e-14
        )

    def test_modulus_bracket_below_threshold(self):
        # |omega| = c * lambda with the sinc factor c in (sin(1.89)/1.89, 1]
        rng = np.random.default_rng(31)
        lam = rng.uniform(0.1, 5.0, size=200)
        dt = rng.uniform(0.01, 1.0, size=200)
        keep = lam * dt < RESONANCE_THRESHOLD
        c = np.abs(discrete_frequency(lam[keep], 1.0) ** 0)  # placeholder shape
        c = np.array(
            [abs(discrete_frequency(l, d)) / l for l, d in zip(lam[keep], dt[keep])]
        )
        assert np.all(c <= 1.0 + 1e-12)
        assert np.all(c > np.sin(1.89) / 1.89 - 1e-12)
        assert np.all(c > 0.49)


class TestDifferenceQuotient:
    def test_constant_inputs_vanish(self):
        spec = OscillatorySumSpec(f=ones, lam=ones, total_time=10.0, steps=20)
        assert abs(difference_quotient(spec, 0.5)) <= 1e-12

    def test_linear_amplitude(self):
        spec = OscillatorySumSpec(
            f=lambda s: np.asarray(s, dtype=float), lam=ones, total_time=10.0, steps=20
        )
        omega = discrete_frequency(1.0, spec.dt)
        assert abs(difference_quotient(spec, 0.4) - 1.0 / omega) <= 1e-12

    def test_approaches_derivative(self):
        rng = np.random.default_rng(41)
        f, lam = random_smooth_pair(rng)
        s = 0.6
        errors = []
        for steps in (100, 200, 400):
            spec = OscillatorySumSpec(f=f, lam=lam, total_time=0.5 * steps, steps=steps)
            eta = difference_quotient(spec, s)
            h = 1e-6
            ratio = lambda x: f(x) / discrete_frequency(lam(x), spec.dt)  # noqa: E731
            derivative = (ratio(s + h) - ratio(s - h)) / (2 * h)
            errors.append(abs(eta - derivative))
        assert errors[1] <= 0.6 * errors[0]
        assert errors[2] <= 0.6 * errors[1]

    def test_resonant_frequency_raises(self):
        spec = OscillatorySumSpec(
            f=ones, lam=lambda s: 2 * np.pi * np.ones_like(np.asarray(s, float)),
            total_time=20.0, steps=20,  # dt = 1: lambda * dt = 2 pi
        )
        with pytest.raises(OmegaZero):
            difference_quotient(spec, 0.5)

    def test_domain_check(self):
        spec = OscillatorySumSpec(f=ones, lam=ones, total_time=10.0, steps=20)
        with pytest.raises(ValueError):
            difference_quotient(spec, 0.01)  # s - 1/L < 0


class TestTotalVariation:
    def test_constant_ratio_zero(self):
        dt = 0.3
        g = lambda s: discrete_frequency(ones(s) * 1.0, dt) * 2.0  # noqa: E731
        assert total_variation(g, ones, dt) <= 1e-10

    def test_linear_ratio_unit(self):
        dt = 0.4
        g = lambda s: np.asarray(s, float) * discrete_frequency(ones(s), dt)  # noqa: E731
        assert total_variation(g, ones, dt) == pytest.approx(1.0, rel=1e-5)

    def test_node_doubling_stability(self, monkeypatch):
        rng = np.random.default_rng(43)
        f, lam = random_smooth_pair(rng)
        coarse = total_variation(f, lam, 0.2)
        monkeypatch.setattr(riemann_lebesgue, "VARIATION_REL_TOL", 1e-8)
        fine = total_variation(f, lam, 0.2)
        assert abs(coarse - fine) <= 1e-5 * max(1.0, fine)


class TestSumBounds:
    def test_constant_case_discrete_vs_continuum_factor(self):
        # ratio |J| / |I| stays <= 2 below the threshold in T/L
        for x in np.linspace(0.05, 1.78, 100):
            steps = 500
            total_time = x * steps
            ratio = closed_form_magnitude(total_time, steps) / abs(
                2 * np.sin(total_time / 2) / total_time
            )
            assert ratio <= 2.0

    def test_factor_two_degrades_past_threshold(self):
        steps = 500
        x = 3.9  # just past the threshold 3.78
        total_time = x * steps
        ratio = closed_form_magnitude(total_time, steps) / abs(
            2 * np.sin(total_time / 2) / total_time
        )
        assert ratio > 2.0

    def test_bounds_dominate_sum(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            f, lam = random_smooth_pair(rng)
            total_time = float(rng.uniform(50, 300))
            dt_target = float(rng.uniform(0.1, 1.2))
            steps = max(4, int(round(total_time / dt_target)))
            spec = OscillatorySumSpec(f=f, lam=lam, total_time=total_time, steps=steps)
            if spec.max_lambda_dt() >= RESONANCE_THRESHOLD:
                continue
            report = sum_bounds(spec)
            assert report.magnitude <= 5 * report.second_order_bound
            assert report.magnitude <= 5 * report.first_order_bound
            assert report.threshold_ok

    def test_first_order_bound_halves_with_time(self):
        f, lam = random_smooth_pair(np.random.default_rng(53))
        a = sum_bounds(OscillatorySumSpec(f=f, lam=lam, total_time=80.0, steps=160))
        b = sum_bounds(OscillatorySumSpec(f=f, lam=lam, total_time=160.0, steps=320))
        assert b.first_order_bound == pytest.approx(a.first_order_bound / 2, rel=1e-3)

    def test_threshold_flag(self):
        spec = OscillatorySumSpec(
            f=ones, lam=lambda s: 4.0 * ones(s), total_time=100.0, steps=100
        )
        assert not sum_bounds(spec).threshold_ok  # lambda dt = 4 > 3.78

    def test_overflowing_bound_raises(self):
        # |f| / T = 1e309 off resonance: the boundary term overflows.
        huge = lambda s: 1e300 * ones(s)  # noqa: E731
        with pytest.raises(NonFiniteResult):
            sum_bounds(OscillatorySumSpec(f=huge, lam=ones, total_time=1e-9, steps=10))
        report = sum_bounds(OscillatorySumSpec(f=huge, lam=ones, total_time=1e-7, steps=10))
        assert report.second_order_bound == report.boundary_bound == pytest.approx(2e307)

    def test_complex_increment_inequality(self):
        # discrete total increment never exceeds the integral of |z'|
        rng = np.random.default_rng(59)
        for _ in range(20):
            a = rng.normal(size=4) + 1j * rng.normal(size=4)

            def z(s):
                s = np.asarray(s, dtype=float)
                return a[0] + a[1] * s + a[2] * np.sin(3 * s) + a[3] * np.cos(2 * s + 1)

            def dz(s):
                s = np.asarray(s, dtype=float)
                return a[1] + 3 * a[2] * np.cos(3 * s) - 2 * a[3] * np.sin(2 * s + 1)

            for steps in (5, 20, 100):
                s_k = np.arange(0, steps + 1) / steps
                increments = np.abs(np.diff(z(s_k))).sum()
                fine = np.linspace(0, 1, 20001)
                integral = np.trapezoid(np.abs(dz(fine)), fine)
                assert increments <= integral + 1e-9


class TestRobustBound:
    def test_linear_path_constant_derivative(self, tfim8):
        norms = [
            operator_norm(path_at(tfim8, s, 1).matrix) for s in (0.0, 0.3, 0.7, 1.0)
        ]
        assert np.allclose(norms, norms[0], atol=1e-9)

    def test_threshold_flag_follows_definition(self, tfim2):
        small = robust_adiabatic_bound(tfim2, 50.0, 0.1)
        large = robust_adiabatic_bound(tfim2, 50.0, 2.0)
        assert small.threshold_ok
        assert not large.threshold_ok
        assert large.max_lambda_dt >= RESONANCE_THRESHOLD

    def test_bound_value_matches_endpoints(self, tfim2):
        report = robust_adiabatic_bound(tfim2, 40.0, 0.2)
        dh = operator_norm(path_at(tfim2, 0.0, 1).matrix)
        gap0 = np.diff(np.linalg.eigvalsh(tfim2.h_initial.matrix))[0]
        gap1 = np.diff(np.linalg.eigvalsh(tfim2.h_final.matrix))[0]
        expected = max(dh / (40.0 * gap0**2), dh / (40.0 * gap1**2))
        assert report.bound == pytest.approx(expected, rel=1e-12)

    def test_chunked_spectrum_matches_one_batch(self, tfim4, monkeypatch):
        whole = robust_adiabatic_bound(tfim4, 40.0, 0.2)
        stacks = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            stacks.append(len(a))
            return eigvalsh(a)

        def forbidden(*args):
            raise AssertionError("endpoint gaps must come from the sampled rows")

        monkeypatch.setattr(model, "STACK_ENTRIES", 8 * tfim4.dim**2)  # 8 frames a stack
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        monkeypatch.setattr(model, "hermitian_eig", forbidden)
        assert robust_adiabatic_bound(tfim4, 40.0, 0.2) == whole
        assert max(stacks) == 8 and sum(stacks) == 101

    def test_measured_error_within_bound_factor(self, tfim2):
        for total_time in (20.0, 50.0, 100.0, 200.0):
            steps = int(2 * total_time)  # dt = 0.5, max lambda * dt well below 3.78
            spec = EvolutionSpec(path=tfim2, total_time=total_time, steps=steps)
            expansion = gamma_expansion(spec)
            report = robust_adiabatic_bound(tfim2, total_time, 0.5)
            assert report.threshold_ok
            assert expansion.adiabatic_error <= 10 * report.bound

    def test_gap_closure(self):
        path = AdiabaticPath(
            HermitianOperator(np.diag([0.0, 0.0, 1.0]) + 0.0j),
            HermitianOperator(np.diag([0.0, 1.0, 2.0]) + 0.0j),
            linear_schedule(),
        )
        with pytest.raises(GapClosure):
            robust_adiabatic_bound(path, 10.0, 0.1)


class TestSimpsonMatchesScipy:
    """The in-house Simpson pair against ``scipy.integrate`` on the odd node
    counts the sweeps pass (2^k + 1): equal bits, real and complex.  SciPy
    is imported here only."""

    @pytest.mark.parametrize("nodes", [513, 2049, 8193])
    @pytest.mark.parametrize("kind", [float, complex])
    def test_bitwise_equal(self, nodes, kind):
        import scipy.integrate

        rng = np.random.default_rng(nodes)
        s = np.linspace(0.0, 1.0, nodes)
        h = s[1] - s[0]
        y = np.cos(7.0 * s) + rng.normal(scale=1e-3, size=nodes)
        if kind is complex:
            y = y * np.exp(-40j * s)
        ours, theirs = simpson(y, h), scipy.integrate.simpson(y, dx=h)
        assert np.asarray(ours).tobytes() == np.asarray(theirs).tobytes()
        ours = cumulative_simpson(y, h)
        theirs = scipy.integrate.cumulative_simpson(y, dx=h, initial=0.0)
        assert ours.dtype == theirs.dtype
        assert ours.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("rule", [simpson, cumulative_simpson])
    @pytest.mark.parametrize("nodes", [512, 1, 2])
    def test_other_node_counts_refused(self, rule, nodes):
        with pytest.raises(ValueError):
            rule(np.ones(nodes), 0.1)
