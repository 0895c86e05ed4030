"""Measures: integration, centralized moments, regime classification."""

from __future__ import annotations

import math

import numpy as np
import pytest

from meanlab import expr as ex
from meanlab import measures as ms
from meanlab.errors import DegenerateMeasure, DomainViolation, QuadratureNonFinite
from meanlab.measures import Density, Discrete, Lebesgue, Regime


EBM = Discrete(((0.0, 0.5), (1.0, 0.5)))
THREE_ATOM = Discrete(((0.0, 1 / 6), (0.5, 2 / 3), (1.0, 1 / 6)))


class TestConstruction:
    def test_atom_outside_interval(self):
        with pytest.raises(ValueError):
            Discrete(((1.5, 1.0),))

    def test_nonpositive_weight(self):
        with pytest.raises(ValueError):
            Discrete(((0.2, 0.0), (0.8, 1.0)))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Discrete(((0.0, 0.5), (1.0, 0.6)))

    def test_density_must_be_normalized(self):
        with pytest.raises(ValueError):
            Density("x")  # integrates to 1/2
        Density("2 * x")  # fine

    def test_density_rejects_bad_order(self):
        with pytest.raises(ValueError):
            Density("2 * x", order=1)

    def test_lebesgue_rejects_bad_order(self):
        with pytest.raises(ValueError, match="quadrature order must be at least 2"):
            Lebesgue(order=1)

    @pytest.mark.parametrize("build", [
        lambda n: Lebesgue(order=n),
        lambda n: Density("1", order=n),
        lambda n: ms.measure_from_json({"type": "density", "rho": "1", "order": n}),
    ], ids=["lebesgue", "density", "density-json"])
    def test_order_above_the_bound_is_rejected(self, build):
        # only the bound + 1: a large order would build an order x order matrix
        with pytest.raises(ValueError, match="^quadrature order 101 is above 100$"):
            build(ms.MAX_QUADRATURE_ORDER + 1)

    def test_density_rejects_a_negative_node_value(self):
        # it integrates to 1 on [0, 1] but is negative near both ends, where
        # its weights would give mu4 < 0 and leave the exponent p undefined
        with pytest.raises(ValueError, match="^density value -0.98360563045282.* is negative$"):
            Density("2 - 12*(x - 0.5)^2")

    def test_density_overflow_is_not_finite(self):
        with pytest.raises(QuadratureNonFinite):
            Density("1e308 * x * 10")


class TestIntegrate:
    def test_two_atoms_identity(self):
        assert ms.integrate(EBM, lambda t: t) == pytest.approx(0.5, abs=1e-15)

    def test_lebesgue_square(self):
        assert ms.integrate(Lebesgue(), lambda t: t * t) == pytest.approx(1 / 3, abs=1e-15)

    @pytest.mark.parametrize("m", [EBM, Lebesgue(), Density("2 * x")])
    def test_scalar_integrand_gives_plain_float(self, m):
        assert type(ms.integrate(m, lambda t: t)) is float

    @pytest.mark.parametrize("m", [EBM, Lebesgue(), Density("2 * x")])
    def test_array_integrand_matches_scalar_integrals(self, m):
        cs = np.array([[0.5, -1.0], [2.0, 3.5]])
        got = ms.integrate(m, lambda t: np.exp(cs * t))
        assert got.shape == cs.shape
        for c, v in zip(cs.ravel(), got.ravel()):
            assert v == ms.integrate(m, lambda t, c=c: np.exp(c * t))

    def test_point_mass_cube(self):
        m = Discrete(((0.3, 1.0),))
        assert ms.integrate(m, lambda t: t**3) == pytest.approx(0.027, abs=1e-16)

    def test_non_finite_integrand(self):
        with pytest.raises(QuadratureNonFinite):
            ms.integrate(Lebesgue(), lambda t: float("nan"))
        with pytest.raises(QuadratureNonFinite):
            ms.integrate(Lebesgue(), lambda t: np.array([t, np.inf]))

    @pytest.mark.parametrize("m", [Lebesgue(), Density("2 * x")])
    def test_errors_name_the_node_as_a_plain_float(self, m):
        with pytest.raises(QuadratureNonFinite) as exc:
            ms.integrate(m, lambda t: math.inf)
        assert str(exc.value) == "integrand returned inf at quadrature node 0.001368069075259215"
        with pytest.raises(DomainViolation) as exc:
            ms.integrate(m, ex.compile_scalar(ex.parse("log(x - 0.5)")))
        assert str(exc.value) == "log of non-positive value at 0.001368069075259215"

    @pytest.mark.parametrize("m", [EBM, Lebesgue(), Density("2 * x")])
    def test_nodes_are_plain_floats_built_once(self, m):
        ts, ws = m._nodes()
        assert m._nodes()[0] is ts
        assert all(type(v) is float for v in ts + ws)

    def test_density_linear(self):
        m = Density("2 * x")
        assert ms.integrate(m, lambda t: t) == pytest.approx(2 / 3, rel=1e-14)


SEGMENT_MEASURES = {"ebm": EBM, "lebesgue": Lebesgue(), "three_atom": THREE_ATOM,
                    "density": Density("2 * x")}


class TestSegmentSum:
    """weighted_sum over a lazy map of a float kernel, the segment sums of
    mean_eval's node loops."""

    @pytest.mark.parametrize("name", sorted(SEGMENT_MEASURES))
    def test_stops_at_the_first_non_finite_node(self, name):
        kernel = ex.compile_scalar(ex.parse("x * x * 1e308"))
        ts, ws = SEGMENT_MEASURES[name]._nodes()
        points = [t * 1.5 for t in ts]
        first = next(i for i, p in enumerate(points) if not math.isfinite(kernel(p)))
        assert first > 0  # the kernel goes non-finite partway
        seen = []

        def h(p):
            seen.append(p)
            return kernel(p)

        with pytest.raises(QuadratureNonFinite) as got:
            ms.weighted_sum(ts, ws, map(h, points))
        assert seen == points[: first + 1]
        assert (got.value.node, got.value.value) == (ts[first], kernel(points[first]))


class TestMoments:
    def test_two_atom_moments(self):
        md = ms.moments(EBM, 6)
        assert md.mu_hat1 == pytest.approx(0.5, abs=1e-15)
        want = [1.0, 0.0, 0.25, 0.0, 0.0625, 0.0, 0.015625]
        for n, w in enumerate(want):
            assert md.mu[n] == pytest.approx(w, abs=1e-15)

    def test_lebesgue_moments_match_closed_form(self):
        md = ms.moments(Lebesgue(), 6)
        assert md.mu_hat1 == pytest.approx(0.5, abs=1e-14)
        for n in (2, 4, 6):
            assert md.mu[n] == pytest.approx(1.0 / ((n + 1) * 2**n), abs=1e-14)
        for n in (1, 3, 5):
            assert abs(md.mu[n]) <= 1e-13

    def test_lebesgue_moments_exact_at_any_order(self):
        for order in (2, 5, 32):
            md = ms.moments(Lebesgue(order), 8)
            assert md.mu_hat1 == 0.5
            assert md.mu == (1.0, 0.0, 1 / 12, 0.0, 1 / 80, 0.0, 1 / 448, 0.0, 1 / 2304)
            assert all(type(v) is float for v in md.mu)

    def test_point_mass_moments_vanish(self):
        md = ms.moments(Discrete(((0.3, 1.0),)), 6)
        assert md.mu_hat1 == pytest.approx(0.3)
        assert all(abs(v) <= 1e-15 for v in md.mu[1:])

    def test_three_atom_moments(self):
        md = ms.moments(THREE_ATOM, 6)
        assert md.mu[2] == pytest.approx(1 / 12, abs=1e-15)
        assert md.mu[4] == pytest.approx(1 / 48, abs=1e-15)
        assert md.mu[6] == pytest.approx(1 / 192, abs=1e-15)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            ms.moments(EBM, 9)

    def test_symmetric_measures_have_no_odd_moments(self, rng):
        for _ in range(50):
            k = rng.randrange(1, 4)
            atoms = []
            ws = [rng.uniform(0.1, 1.0) for _ in range(k)]
            center = rng.uniform(0.0, 0.5)
            total = 2 * sum(ws) + center
            for w in ws:
                t = rng.uniform(0.0, 0.49)
                atoms.append((t, w / total))
                atoms.append((1.0 - t, w / total))
            if center > 0:
                atoms.append((0.5, center / total))
            md = ms.moments(Discrete(tuple(atoms)), 6)
            assert abs(md.mu[3]) <= 1e-13 and abs(md.mu[5]) <= 1e-13

    def test_fourth_moment_dominates_variance_squared(self, rng):
        for _ in range(50):
            k = rng.randrange(2, 5)
            ws = [rng.uniform(0.05, 1.0) for _ in range(k)]
            s = sum(ws)
            atoms = tuple((rng.uniform(0, 1), w / s) for w in ws)
            md = ms.moments(Discrete(atoms), 6)
            assert md.mu[4] >= md.mu[2] ** 2 - 1e-13


class TestClassify:
    def test_two_atom_regime(self):
        info = ms.classify(EBM)
        assert info.regime is Regime.EVEN_SYMMETRIC
        assert info.p == pytest.approx(2.0, abs=1e-13)
        assert info.q == pytest.approx(2.0, abs=1e-12)
        assert info.r is None
        assert info.moment_condition_6 == pytest.approx(0.0, abs=1e-16)

    def test_lebesgue_regime(self):
        info = ms.classify(Lebesgue())
        assert info.regime is Regime.EVEN_SYMMETRIC
        assert info.p == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert info.q == pytest.approx(2.0 / 3.0, abs=1e-11)
        assert info.moment_condition_6 == pytest.approx(0.0, abs=1e-16)

    def test_three_atom_regime(self):
        info = ms.classify(THREE_ATOM)
        assert info.regime is Regime.EVEN_SYMMETRIC
        assert info.p == pytest.approx(0.0, abs=1e-13)
        assert info.r == pytest.approx(-1.0, abs=1e-12)

    def test_skewed_measure_is_mu3_regime(self):
        info = ms.classify(Density("2 * x"))
        assert info.regime is Regime.MU3_NONZERO

    def test_mu3_zero_mu5_nonzero_regime(self):
        # symmetric pair plus a tuned third atom kills mu3 but not mu5;
        # atoms {0: 0.6-s, 0.6: 0.4, 1: s} with s solving mu3 = 0
        s = 0.21378583129651413
        m = Discrete(((0.0, 0.6 - s), (0.6, 0.4), (1.0, s)))
        md = ms.moments(m, 6)
        assert abs(md.mu[3]) <= 1e-13
        assert abs(md.mu[5]) > 1e-4
        info = ms.classify(m)
        assert info.regime is Regime.MU3_ZERO_MU5_NONZERO

    def test_dirac_is_degenerate(self):
        with pytest.raises(DegenerateMeasure):
            ms.classify(Discrete(((0.3, 1.0),)))


class TestSerialization:
    @pytest.mark.parametrize(
        "m",
        [EBM, THREE_ATOM, Lebesgue(), Density("2 * x"), Density("1 + 0 * x", order=16)],
    )
    def test_roundtrip(self, m):
        data = ms.measure_to_json(m)
        back = ms.measure_from_json(data)
        md1, md2 = ms.moments(m, 6), ms.moments(back, 6)
        assert md1.mu_hat1 == pytest.approx(md2.mu_hat1, abs=1e-15)
        for a, b in zip(md1.mu, md2.mu):
            assert a == pytest.approx(b, abs=1e-15)

    @pytest.mark.parametrize(
        "data",
        [
            {"type": "cantor"},
            {"type": "atoms"},
            {"type": "density"},
            {"type": "atoms", "atoms": 5},
            {"type": "atoms", "atoms": [[0.5]]},
            {"type": "density", "rho": 5},
            {"type": "density", "rho": "2 * x", "order": None},
            [1, 2],
            # JSON true loads as a bool, an int subclass; it is no number here
            {"type": "atoms", "atoms": [[True, 0.5], [0, 0.5]]},
            {"type": "atoms", "atoms": [[0.5, True]]},
            {"type": "density", "rho": "2 * x", "order": True},
            {"type": "atoms", "atoms": []},
            # JSON names the Lebesgue measure at order 32 alone; an order key is rejected
            {"type": "lebesgue", "order": 32},
            {"type": "lebesgue", "order": 1},
            {"type": "lebesgue", "order": 101},
            {"type": "lebesgue", "order": True},
            {"type": "lebesgue", "order": "7"},
        ],
        ids=[
            "cantor", "atoms_missing", "rho_missing", "atoms_int", "atom_short", "rho_int",
            "order_null", "list", "atom_location_bool", "atom_weight_bool", "order_bool",
            "atoms_empty", "lebesgue_order_32", "lebesgue_order_1", "lebesgue_order_101", "lebesgue_order_bool",
            "lebesgue_order_str",
        ],
    )
    def test_unknown_type(self, data):
        with pytest.raises(ValueError):
            ms.measure_from_json(data)

    def test_lebesgue_json_has_order_32_alone(self):
        assert ms.measure_to_json(Lebesgue()) == {"type": "lebesgue"}
        assert ms.measure_from_json('{"type": "lebesgue"}') == Lebesgue()
        with pytest.raises(ValueError, match="order 7 has no JSON form"):
            ms.measure_to_json(Lebesgue(7))
        with pytest.raises(ValueError, match="takes no key 'order'"):
            ms.measure_from_json('{"type": "lebesgue", "order": 7}')

    def test_booleans_are_named_in_the_error(self):
        with pytest.raises(ValueError, match=r"pairs, not \[True, 0\.5\]"):
            ms.measure_from_json('{"type": "atoms", "atoms": [[true, 0.5], [0, 0.5]]}')
        with pytest.raises(ValueError, match="'order' must be a int, not True"):
            ms.measure_from_json('{"type": "density", "rho": "2 * x", "order": true}')
        # integers stay numbers
        assert ms.measure_from_json({"type": "atoms", "atoms": [[1, 1]]}).atoms == ((1.0, 1.0),)

    def test_not_a_measure(self):
        with pytest.raises(TypeError, match="^not a measure"):
            ms.measure_to_json(object())

    def test_presets(self):
        assert ms.moments(ms.preset_measure("ebm"), 2).mu[2] == pytest.approx(0.25)
        assert ms.moments(ms.preset_measure("lebesgue"), 2).mu[2] == pytest.approx(1 / 12)
        with pytest.raises(ValueError):
            ms.preset_measure("borel")
