"""Kinetics core: thermo polynomials, rates, the RHS and the exact Jacobian
(checked against the finite-difference oracle)."""
import numpy as np
import pytest

from conftest import (flat_thermo, make_mechanism, make_species, mechgen,
                      random_balanced_mechanism)
from expkin.kinetics import (
    InvalidStateError, KineticsError, Mechanism, P_STANDARD, R_GAS,
    RateTelemetry, Reaction, Species, ThermoRangeError, ThermoState,
    TYPICAL_T, TYPICAL_Y, _slots, _unpack, concentrations, density, equilibrium_constants,
    production_rates, rate_constants, reaction_rates, rhs_and_jacobian,
    rhs_vector, species_thermo,
)
from oracles import fd_jacobian


def two_species_state(T=1000.0, p=101325.0, ya=0.5):
    return ThermoState(T=T, p=p, Y=np.array([ya, 1.0 - ya]))


def one_reaction_mech(rxn, b_a6=0.0):
    """Species A and B (both 0.030 kg/mol, flat c_p) and one reaction A -> B."""
    return make_mechanism(
        [make_species("A", 0.030), make_species("B", 0.030, a6=b_a6)], [rxn])


def rhs(state, mech):
    return rhs_vector(state.to_vector(), mech, state.p)


def thermo_of(sp, T):
    """c_p, H, S and dc_p/dT of one species, through species_thermo."""
    return species_thermo(T, make_mechanism([sp], []))[:, 0]


def jacobian_at(state, mech):
    return rhs_and_jacobian(state.to_vector(), mech, state.p)[1]


class TestDensity:
    def test_single_species_ideal_gas(self):
        mech = make_mechanism([make_species("N2", 0.028)], [])
        st = ThermoState(T=1000.0, p=101325.0, Y=np.array([1.0]))
        assert density(st, mech) == pytest.approx(
            101325.0 * 0.028 / (R_GAS * 1000.0), rel=1e-14)

    def test_density_linear_in_pressure(self, ab_mech):
        st1 = two_species_state(p=101325.0)
        st2 = two_species_state(p=202650.0)
        assert density(st2, ab_mech) == pytest.approx(
            2 * density(st1, ab_mech), rel=1e-14)

    def test_mean_molar_mass_mass_weighted_harmonic(self):
        # Equal mass fractions of W=0.002 and W=0.032: 1/Wbar = sum Y_i/W_i.
        mech = make_mechanism(
            [make_species("H2", 0.002), make_species("O2", 0.032)], [])
        st = two_species_state()
        wbar = 1.0 / (0.5 / 0.002 + 0.5 / 0.032)
        assert density(st, mech) == pytest.approx(
            st.p * wbar / (R_GAS * st.T), rel=1e-14)

    def test_concentrations_mass_consistent(self, toy_mech, toy_state):
        chi = concentrations(toy_state, toy_mech)
        assert float(chi @ toy_mech.molar_masses) == pytest.approx(
            density(toy_state, toy_mech), rel=1e-14)

    def test_slightly_negative_Y_clamped(self, ab_mech):
        st = ThermoState(T=1000.0, p=1e5, Y=np.array([-5e-9, 1.0]))
        chi = concentrations(st, ab_mech)
        assert chi[0] == 0.0

    def test_too_negative_Y_rejected(self, ab_mech):
        st = ThermoState(T=1000.0, p=1e5, Y=np.array([-1e-6, 1.0]))
        with pytest.raises(InvalidStateError):
            rhs_vector(st.to_vector(), ab_mech, st.p)
        # The rates of progress pass the same state check.
        with pytest.raises(InvalidStateError):
            reaction_rates(st, ab_mech)

    @pytest.mark.parametrize("Y", [[-1e-6, 1.0], [0.5, 3.0],
                                   [0.5, 0.25, 0.25], [1.0]],
                             ids=["too-negative", "above-one",
                                  "too-long", "too-short"])
    @pytest.mark.parametrize("view", [density, concentrations])
    def test_density_views_check_the_state(self, ab_mech, view, Y):
        # Each state is refused by rhs_vector. Without the check the first
        # two read as a negative concentration and a density of 0.104
        # kg/m^3; a single Y would broadcast over both species.
        st = ThermoState(T=1000.0, p=1e5, Y=np.array(Y))
        with pytest.raises(InvalidStateError):
            view(st, ab_mech)


class TestThermo:
    def test_flat_cp(self):
        sp = make_species("X", 0.030, a1=3.5)
        assert thermo_of(sp, 500.0)[0] == pytest.approx(3.5 * R_GAS, rel=1e-14)

    def test_enthalpy_offset_term(self):
        sp = make_species("X", 0.030, a1=3.5, a6=1.0e4)
        T = 700.0
        assert thermo_of(sp, T)[1] == pytest.approx(
            R_GAS * T * (3.5 + 1.0e4 / T), rel=1e-14)

    def test_cp_is_enthalpy_derivative(self, toy_mech):
        sp = toy_mech.species[0]
        T, dT = 1500.0, 1e-3
        dh = (thermo_of(sp, T + dT)[1] - thermo_of(sp, T - dT)[1]) / (2 * dT)
        assert dh == pytest.approx(thermo_of(sp, T)[0], rel=1e-7)

    def test_range_switch_at_tmid(self):
        lo = (3.0, 1e-4, 0.0, 0.0, 0.0, 0.0, 5.0)
        # Matched cp at T_mid = 1000 (3.0 + 0.1 == 3.1), different curvature.
        hi = (3.1, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0)
        sp = Species(name="X", molar_mass=0.030, t_low=200.0, t_mid=1000.0,
                     t_high=6000.0, coeffs_low=lo, coeffs_high=hi)
        assert thermo_of(sp, 999.0)[0] == pytest.approx(
            R_GAS * (3.0 + 1e-4 * 999.0))
        assert thermo_of(sp, 1001.0)[0] == pytest.approx(R_GAS * 3.1)

    def test_discontinuous_cp_rejected(self):
        lo = (3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0)
        hi = (4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0)
        with pytest.raises(KineticsError):
            Species(name="X", molar_mass=0.030, t_low=200.0, t_mid=1000.0,
                    t_high=6000.0, coeffs_low=lo, coeffs_high=hi)

    def test_out_of_range_temperature(self):
        sp = make_species("X", 0.030)
        with pytest.raises(ThermoRangeError):
            thermo_of(sp, 100.0)
        with pytest.raises(ThermoRangeError):
            thermo_of(sp, 7000.0)

    def test_out_of_range_names_the_species(self):
        mech = make_mechanism([make_species("A", 0.030),
                               make_species("Z", 0.030, t_high=3000.0)], [])
        species_thermo(2500.0, mech)
        with pytest.raises(ThermoRangeError, match="'Z'") as exc:
            species_thermo(4000.0, mech)
        assert exc.value.species_name == "Z" and exc.value.T == 4000.0

    def test_thermo_props_pair(self):
        sp = make_species("X", 0.030, a1=3.5, a6=2.0e3, a7=4.0)
        cp, h, s, dcp = thermo_of(sp, 800.0)
        want_cp, want_h, want_s = flat_thermo([sp], 800.0)
        assert cp == pytest.approx(want_cp[0], rel=1e-14)
        assert h == pytest.approx(want_h[0], rel=1e-14)
        assert s == pytest.approx(want_s[0], rel=1e-14)
        assert dcp == 0.0


class TestRates:
    def test_forward_rate_constant_A(self):
        rxn = Reaction(reactants={0: 1}, products={1: 1}, arrhenius=(5.0, 0.0, 0.0))
        kf, _ = rate_constants(1000.0, one_reaction_mech(rxn))
        assert kf[0] == pytest.approx(5.0, rel=1e-15)

    def test_forward_rate_linear_T(self):
        rxn = Reaction(reactants={0: 1}, products={1: 1}, arrhenius=(1.0, 1.0, 0.0))
        kf, _ = rate_constants(300.0, one_reaction_mech(rxn))
        assert kf[0] == pytest.approx(300.0, rel=1e-14)

    def test_forward_rate_activation(self):
        rxn = Reaction(reactants={0: 1}, products={1: 1},
                       arrhenius=(1.0, 0.0, R_GAS * 1000.0))
        kf, _ = rate_constants(1000.0, one_reaction_mech(rxn))
        assert kf[0] == pytest.approx(np.exp(-1.0), rel=1e-14)

    def test_exponent_clamp_sets_telemetry(self):
        rxn = Reaction(reactants={0: 1}, products={1: 1},
                       arrhenius=(1.0, 0.0, 1.0e9))
        tel = RateTelemetry()
        kf, _ = rate_constants(300.0, one_reaction_mech(rxn), telemetry=tel)
        assert np.isfinite(kf[0]) and tel.saturated

    def test_no_telemetry_when_unclamped(self):
        rxn = Reaction(reactants={0: 1}, products={1: 1},
                       arrhenius=(1.0, 0.0, 1.0e4))
        tel = RateTelemetry()
        rate_constants(1000.0, one_reaction_mech(rxn), telemetry=tel)
        assert not tel.saturated

    def test_equilibrium_constant_identity_reaction(self, ab_equilibrium_mech):
        # A <=> B with identical thermo: dG = 0, dnu = 0, K_c = 1.
        assert equilibrium_constants(1200.0, ab_equilibrium_mech)[0] == \
            pytest.approx(1.0, rel=1e-14)

    def test_equilibrium_constant_oracle(self, toy_mech):
        # Recompute K_c of reaction 1 (F + X => 2 X) from scratch with the
        # raw polynomial formulas.
        T = 1400.0

        def g(sp):
            a1, a6, a7 = sp.coeffs_low[0], sp.coeffs_low[5], sp.coeffs_low[6]
            h = R_GAS * T * (a1 + a6 / T)
            s = R_GAS * (a1 * np.log(T) + a7)
            return h - T * s

        F, X = toy_mech.species[0], toy_mech.species[1]
        dG = 2 * g(X) - g(F) - g(X)
        dnu = 2 - 2
        expected = np.exp(-dG / (R_GAS * T)) * (P_STANDARD / (R_GAS * T)) ** dnu
        assert equilibrium_constants(T, toy_mech)[1] == \
            pytest.approx(expected, rel=1e-13)

    def test_reverse_rate_irreversible_zero(self):
        rxn = Reaction(reactants={0: 1}, products={1: 1},
                       arrhenius=(2.0, 0.0, 0.0), reversible=False)
        _, kr = rate_constants(1000.0, one_reaction_mech(rxn, b_a6=1.0e3))
        assert kr[0] == 0.0

    def test_reverse_rate_conventions(self):
        # f = 6 and, from B's enthalpy offset, K_c = exp(ln 2) = 2 at 1000 K.
        T = 1000.0
        rxn = Reaction(reactants={0: 1}, products={1: 1},
                       arrhenius=(6.0, 0.0, 0.0), reversible=True)
        mech = one_reaction_mech(rxn, b_a6=-T * np.log(2.0))
        kc = equilibrium_constants(T, mech)[0]
        kf, kr = rate_constants(T, mech)
        assert kf[0] == 6.0 and kc == pytest.approx(2.0, rel=1e-14)
        # Detailed balance is the only reverse-rate law: k_r = k_f / K_c.
        assert kr[0] == kf[0] / kc
        assert kr[0] == pytest.approx(3.0, rel=1e-14)

    def test_explicit_reverse_is_not_an_argument(self):
        # Detailed balance is the one reverse-rate law, so a reaction takes
        # no explicit reverse fit.
        with pytest.raises(TypeError):
            Reaction(reactants={0: 1}, products={1: 1},
                     arrhenius=(6.0, 0.0, 0.0), reversible=True,
                     explicit_reverse=(7.0, 0.0, 0.0))

    def test_reaction_rate_hand_value(self, ab_mech):
        # A => B, k = 2, chi_A known from the state: q = k * chi_A.
        st = two_species_state()
        chi = concentrations(st, ab_mech)
        rates = reaction_rates(st, ab_mech)
        assert rates[0] == pytest.approx(2.0 * chi[0], rel=1e-14)

    def test_second_order_rate(self):
        # 2A => B: q = k chi_A^2.
        sp = [make_species("A", 0.015), make_species("B", 0.030)]
        rxn = Reaction(reactants={0: 2}, products={1: 1},
                       arrhenius=(3.0, 0.0, 0.0))
        mech = make_mechanism(sp, [rxn])
        st = two_species_state()
        chi = concentrations(st, mech)
        assert reaction_rates(st, mech)[0] == pytest.approx(
            3.0 * chi[0] ** 2, rel=1e-14)

    def test_rates_match_per_reaction_loop(self):
        # Reference: the rate laws applied one reaction at a time with the
        # closed-form flat-c_p thermo, on seeded random mechanisms.
        rng = np.random.default_rng(5)
        for _ in range(20):
            mech = random_balanced_mechanism(rng)
            st = ThermoState(T=rng.uniform(600.0, 2500.0), p=rng.uniform(5e4, 5e6),
                             Y=rng.dirichlet(np.ones(mech.n_species)))
            T = st.T
            chi = concentrations(st, mech)
            _, H, S = flat_thermo(mech.species, T)
            g = H - T * S
            for rxn, q in zip(mech.reactions, reaction_rates(st, mech)):
                A, beta, E = rxn.arrhenius
                f = A * T**beta * np.exp(-E / (R_GAS * T))
                fwd = f * np.prod([chi[i] ** n for i, n in rxn.reactants.items()])
                rev = 0.0
                if rxn.reversible:
                    dG = (sum(n * g[i] for i, n in rxn.products.items())
                          - sum(n * g[i] for i, n in rxn.reactants.items()))
                    dnu = sum(rxn.products.values()) - sum(rxn.reactants.values())
                    kc = np.exp(-dG / (R_GAS * T)) * (P_STANDARD / (R_GAS * T)) ** dnu
                    rev = f / kc * np.prod([chi[i] ** n for i, n in rxn.products.items()])
                assert abs(q - (fwd - rev)) <= 1e-11 * max(fwd, rev)

    def test_equilibrium_composition_zero_net_rate(self, ab_equilibrium_mech):
        # Equal concentrations and K_c = 1: forward and reverse cancel.
        st = two_species_state(ya=0.5)
        assert reaction_rates(st, ab_equilibrium_mech)[0] == \
            pytest.approx(0.0, abs=1e-12)


class TestProductionAndRhs:
    def test_production_rate_stoichiometry(self, ab_mech):
        omega = production_rates(np.array([4.0]), ab_mech)
        np.testing.assert_allclose(omega, [-4.0, 4.0])

    def test_production_rate_length_check(self, ab_mech):
        with pytest.raises(ValueError):
            production_rates(np.array([1.0, 2.0]), ab_mech)

    def test_dead_mechanism_rhs_zero(self, dead_mech):
        st = two_species_state()
        np.testing.assert_array_equal(rhs(st, dead_mech), np.zeros(3))

    def test_rhs_hand_evaluation(self, toy_mech, toy_state):
        # Recompute dT and dY directly from the definition.
        chi = concentrations(toy_state, toy_mech)
        rho = density(toy_state, toy_mech)
        T = toy_state.T
        q = np.array([A * T**beta * np.exp(-E / (R_GAS * T))
                      for A, beta, E in (r.arrhenius for r in toy_mech.reactions)])
        q[0] *= chi[0]
        q[1] *= chi[0] * chi[1]
        omega = (toy_mech.nu_reverse - toy_mech.nu_forward).T @ q
        cp, H, _ = flat_thermo(toy_mech.species, T)
        cp_mass = float(np.sum(toy_state.Y * cp / toy_mech.molar_masses))
        expected = np.concatenate((
            [-float(omega @ H) / (rho * cp_mass)],
            omega * toy_mech.molar_masses / rho))
        np.testing.assert_allclose(rhs(toy_state, toy_mech), expected,
                                   rtol=1e-12)

    def test_exothermic_reaction_heats(self, toy_mech, toy_state):
        # Toy fuel enthalpy >> product enthalpy, so dT/dt > 0.
        assert rhs(toy_state, toy_mech)[0] > 0.0

    def test_mass_conservation_random_mechanisms(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            mech = random_balanced_mechanism(rng)
            Y = rng.dirichlet(np.ones(mech.n_species))
            st = ThermoState(T=rng.uniform(600.0, 2500.0),
                             p=rng.uniform(5e4, 5e6), Y=Y)
            dy = rhs(st, mech)
            assert abs(dy[1:].sum()) <= 1e-12 * max(1.0, np.abs(dy[1:]).max())

    def test_quasi_positivity(self):
        # A species with zero mass fraction can only be produced.
        rng = np.random.default_rng(7)
        for _ in range(25):
            mech = random_balanced_mechanism(rng)
            Y = rng.dirichlet(np.ones(mech.n_species))
            i = rng.integers(mech.n_species)
            Y[i] = 0.0
            Y = Y / Y.sum()
            st = ThermoState(T=1500.0, p=1e5, Y=Y)
            assert rhs(st, mech)[1 + i] >= -1e-13

    def test_rhs_deterministic(self, toy_mech, toy_state):
        a = rhs(toy_state, toy_mech)
        b = rhs(toy_state, toy_mech)
        np.testing.assert_array_equal(a, b)

    def test_rhs_vector_validates(self, toy_mech):
        y = np.array([-5.0, 0.1, 0.0, 0.9])
        with pytest.raises(InvalidStateError):
            rhs_vector(y, toy_mech, 101325.0)

    @pytest.mark.parametrize("T, p, Y", [
        *(pytest.param(T, p, [0.1, 0.0, 0.9], id=f"{T}-{p}") for T, p in (
            (1000.0, 0.0), (1000.0, -1.0), (1000.0, np.nan),
            (0.0, 101325.0), (np.nan, 101325.0), (np.inf, 101325.0))),
        pytest.param(1000.0, 101325.0, [0.0, 0.0, 0.0], id="Y-zero"),
        pytest.param(1000.0, 101325.0, [-5e-9, 0.0, 0.0], id="Y-clipped-zero"),
        pytest.param(1000.0, 101325.0, [np.nan, 0.0, 0.9], id="Y-nan"),
        pytest.param(1000.0, 101325.0, [np.inf, 0.0, 0.9], id="Y+inf"),
        pytest.param(1000.0, 101325.0, [-np.inf, 0.0, 0.9], id="Y-inf"),
        pytest.param(1000.0, 101325.0, [0.1, 0.0, 0.0, 0.9], id="Y-too-long"),
        pytest.param(1000.0, 101325.0, [0.1, 0.9], id="Y-too-short")])
    @pytest.mark.parametrize("evaluate", [rhs_vector, rhs_and_jacobian])
    def test_bad_temperature_or_pressure_rejected(self, toy_mech, evaluate, T, p, Y):
        # Both entry points share one state check; a bad pressure shows as a
        # non-physical density. Mass fractions that are all zero once
        # clipped hold no moles, so they have no density either; nor does
        # a NaN mass fraction, which no bound excludes. A state
        # vector is T and one mass fraction per species; any other length
        # is refused before numpy broadcasts or multiplies it.
        with pytest.raises(InvalidStateError):
            evaluate(np.array([T, *Y]), toy_mech, p)


def oracle_error(mech, y, p):
    """Largest row-and-column scaled gap between the J of rhs_and_jacobian()
    and the FD oracle.

    Column j is scaled by the size of y_j (at least its typical value), row
    i by its largest scaled entry. A relative step of 1e-6 keeps roundoff
    in the temperature row, which sums large opposing enthalpy terms, well
    below that of the default sqrt(eps) step.
    """
    J = rhs_and_jacobian(y, mech, p)[1]
    typical = np.concatenate(([TYPICAL_T], np.full(mech.n_species, TYPICAL_Y)))
    fd = fd_jacobian(lambda v: rhs_vector(v, mech, p), y, typical,
                     step=1e-6)
    c = np.maximum(np.abs(y), typical)
    row = np.abs(fd * c).max(axis=1, keepdims=True)
    row[row == 0.0] = 1.0
    return np.abs((J - fd) * c / row).max()


def assert_mass_conserving(J):
    # sum_i dY_i/dt = 0 identically, so the Y rows sum to 0 in every column.
    colsums = J[1:, :].sum(axis=0)
    assert np.abs(colsums).max() <= 1e-12 * max(1.0, np.abs(J[1:, :]).max())


class TestJacobian:
    def test_linear_function_exact(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((5, 5))
        J = fd_jacobian(lambda y: M @ y, rng.standard_normal(5))
        np.testing.assert_allclose(J, M, atol=1e-7)

    def test_dead_mechanism_zero_jacobian(self, dead_mech):
        st = two_species_state()
        J = jacobian_at(st, dead_mech)
        np.testing.assert_allclose(J, np.zeros((3, 3)), atol=1e-12)

    def test_directional_derivative(self, toy_mech):
        # J v against a central difference of the full RHS along v.
        st = ThermoState(T=1100.0, p=101325.0,
                         Y=np.array([0.09, 0.01, 0.9]))
        J = jacobian_at(st, toy_mech)
        y = st.to_vector()
        v = np.array([1.0, 1e-4, 1e-4, -2e-4])
        v = v / np.linalg.norm(v)
        eps = 1e-6
        dd = (rhs_vector(y + eps * v, toy_mech, st.p)
              - rhs_vector(y - eps * v, toy_mech, st.p)) / (2 * eps)
        np.testing.assert_allclose(J @ v, dd, rtol=2e-5, atol=1e-10)

    def test_jacobian_column_mass_conservation(self, toy_mech):
        # sum_i dY_i/dt = 0 identically, so each column sums to 0 in Y rows.
        st = ThermoState(T=1100.0, p=101325.0,
                         Y=np.array([0.09, 0.01, 0.9]))
        J = jacobian_at(st, toy_mech)
        colsums = J[1:, :].sum(axis=0)
        assert np.abs(colsums).max() < 1e-6 * max(1.0, np.abs(J).max())

    def test_oracle_toy_interior(self, toy_mech):
        y = np.array([1100.0, 0.09, 0.01, 0.9])
        assert oracle_error(toy_mech, y, 101325.0) < 1e-6
        F, J = rhs_and_jacobian(y, toy_mech, 101325.0)
        assert_mass_conserving(J)
        # F comes from the same evaluation as J and is assembled by the code
        # rhs uses, so it is the same bits as rhs_vector.
        np.testing.assert_array_equal(F, rhs_vector(y, toy_mech, 101325.0))

    def test_oracle_random_mechanisms(self):
        # Seeded draws with reversible reactions, at interior states.
        rng = np.random.default_rng(11)
        n_reversible = 0
        for _ in range(20):
            mech = random_balanced_mechanism(rng)
            n_reversible += int(mech.tables.reversible.sum())
            Y = rng.dirichlet(np.ones(mech.n_species))
            y = np.concatenate(([rng.uniform(600.0, 2500.0)], Y))
            p = rng.uniform(5e4, 5e6)
            assert oracle_error(mech, y, p) < 1e-6
            F, J = rhs_and_jacobian(y, mech, p)
            assert_mass_conserving(J)
            np.testing.assert_array_equal(F, rhs_vector(y, mech, p))
        assert n_reversible > 0

    def test_oracle_mixed_reversibility(self):
        # A + B <=> 2 C and 2 A <=> B by detailed balance, beside an
        # irreversible 2 C => A + B. C's c_p depends on T, so dc_p/dT enters
        # the temperature column.
        c_coeffs = (3.0, 1.5e-3, -4.0e-7, 3.0e-11, 0.0, 5.0e2, 6.0)
        sp = [make_species("A", 0.020, a6=2.0e3, a7=4.0),
              make_species("B", 0.040, a1=4.5, a6=-1.0e3, a7=7.0),
              Species(name="C", molar_mass=0.030, t_low=200.0, t_mid=1000.0,
                      t_high=6000.0, coeffs_low=c_coeffs, coeffs_high=c_coeffs)]
        rx = [Reaction(reactants={0: 1, 1: 1}, products={2: 2},
                       arrhenius=(3.0e5, 0.5, 4.0e4), reversible=True),
              Reaction(reactants={0: 2}, products={1: 1},
                       arrhenius=(1.0e6, 0.0, 3.0e4), reversible=True),
              Reaction(reactants={2: 2}, products={0: 1, 1: 1},
                       arrhenius=(5.0e3, 1.0, 2.0e4))]
        mech = make_mechanism(sp, rx)
        assert mech.tables.reversible.tolist() == [True, True, False]
        y = np.array([1300.0, 0.3, 0.5, 0.2])
        assert oracle_error(mech, y, 2.0e5) < 1e-6
        assert_mass_conserving(rhs_and_jacobian(y, mech, 2.0e5)[1])

    def test_exact_column_at_zero_mass_fraction(self, toy_mech, toy_state):
        # At Y_X = 0 the exact column is the forward difference. The central
        # FD oracle steps into the Y < 0 clip there and halves the column.
        y = toy_state.to_vector()
        p = toy_state.p
        F, J = rhs_and_jacobian(y, toy_mech, p)
        f = lambda v: rhs_vector(v, toy_mech, p)
        np.testing.assert_array_equal(F, f(y))
        delta = 1e-9
        yp = y.copy()
        yp[2] += delta
        forward = (f(yp) - f(y)) / delta
        assert J[0, 2] == pytest.approx(5.815e5, rel=1e-3)
        np.testing.assert_allclose(J[:, 2], forward, rtol=1e-6)
        typical = np.concatenate(([TYPICAL_T], np.full(3, TYPICAL_Y)))
        fd = fd_jacobian(f, y, typical)
        assert fd[0, 2] == pytest.approx(0.5 * J[0, 2], rel=1e-4)

    def test_saturated_exponent_sets_telemetry(self):
        # E = 1e9 clamps exp(-E/RT) through both rhs and rhs_and_jacobian;
        # the clamped factor is constant, so the Jacobian stays finite.
        rxn = Reaction(reactants={0: 1}, products={1: 1},
                       arrhenius=(1.0, 0.0, 1.0e9))
        mech = one_reaction_mech(rxn)
        y = np.array([300.0, 0.5, 0.5])
        tel_rhs, tel_jac = RateTelemetry(), RateTelemetry()
        rhs_vector(y, mech, 1e5, telemetry=tel_rhs)
        J = rhs_and_jacobian(y, mech, 1e5, telemetry=tel_jac)[1]
        assert tel_rhs.saturated and tel_jac.saturated
        assert np.all(np.isfinite(J))

    def test_one_sided_fallback(self):
        # f raises for y < 0; the FD falls back to a one-sided difference.
        def f(y):
            if np.any(y < 0):
                raise KineticsError("negative")
            return y ** 2

        J = fd_jacobian(f, np.array([0.0, 2.0]))
        assert J[1, 1] == pytest.approx(4.0, rel=1e-6)
        assert abs(J[0, 0]) < 1e-6


class TestValidation:
    def test_mass_imbalanced_reaction_rejected(self):
        sp = [make_species("A", 0.030), make_species("B", 0.020)]
        with pytest.raises(KineticsError):
            make_mechanism(sp, [Reaction(reactants={0: 1}, products={1: 1},
                                         arrhenius=(1.0, 0.0, 0.0))])

    def test_negative_preexponential_rejected(self):
        with pytest.raises(KineticsError):
            Reaction(reactants={0: 1}, products={1: 1},
                     arrhenius=(-1.0, 0.0, 0.0))

    def test_fractional_stoichiometry_rejected(self):
        with pytest.raises(KineticsError):
            Reaction(reactants={0: 1.5}, products={1: 1},
                     arrhenius=(1.0, 0.0, 0.0))

    def test_mass_imbalance_names_the_reaction(self):
        sp = [make_species("A", 0.030), make_species("B", 0.030),
              make_species("C", 0.060)]
        rx = [Reaction(reactants=r, products=p, arrhenius=(1.0, 0.0, 0.0))
              for r, p in (({0: 1}, {1: 1}), ({0: 2}, {2: 1}), ({0: 1}, {2: 1}))]
        with pytest.raises(KineticsError) as e:
            make_mechanism(sp, rx)
        assert e.value.reaction == 2

    @pytest.mark.parametrize("name", ["molar_masses", "nu_forward", "nu_reverse"])
    def test_derived_arrays_are_not_arguments(self, name):
        # They are derived from species and reactions; passing one is an
        # error rather than a value that is silently overwritten.
        with pytest.raises(TypeError):
            Mechanism((make_species("A", 0.030),), (), **{name: np.ones(1)})

    def test_duplicate_species_rejected(self):
        sp = [make_species("A", 0.030), make_species("A", 0.030)]
        with pytest.raises(KineticsError):
            make_mechanism(sp, [])

    def test_state_vector_round_trip(self, ab_mech):
        st = ThermoState(T=1234.5, p=2e5, Y=np.array([0.25, 0.75]))
        T, Y = _unpack(st.to_vector(), ab_mech)
        assert T == st.T and st.p == 2e5
        np.testing.assert_array_equal(Y, st.Y)


def nu_matrix(sides, K):
    """Integer (N, K) matrix of stoichiometry dicts."""
    nu = np.zeros((len(sides), K), dtype=int)
    for j, side in enumerate(sides):
        for k, n in side.items():
            nu[j, k] = n
    return nu


def expanded_slots(sides, K):
    """Stoichiometry dicts one reaction at a time: each species index once
    per unit of coefficient, ascending, padded with K to width >= 1."""
    rows = [[k for k in sorted(side) for _ in range(side[k])] for side in sides]
    width = max([1] + [len(r) for r in rows])
    return np.array([r + [K] * (width - len(r)) for r in rows],
                    dtype=np.intp).reshape(len(rows), width)


class TestTables:
    def test_arrays_are_read_only(self, toy_mech):
        # Every evaluation shares these arrays; none may be written.
        arrays = {name: value for name, value in vars(toy_mech.tables).items()
                  if isinstance(value, np.ndarray)}
        assert {"nu_net", "jacobian_index", "no_reverse"} <= set(arrays)
        for name, a in arrays.items():
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0
            assert not a.flags.writeable, name

    def test_zero_reverse_rates_only_without_reversible_reactions(self, toy_mech):
        # toy3's reactions are irreversible; a reversible one needs k_r.
        assert toy_mech.tables.no_reverse.tolist() == [0.0, 0.0]
        assert rate_constants(1000.0, toy_mech)[1] is toy_mech.tables.no_reverse
        rxn = Reaction(reactants={0: 1}, products={1: 1},
                       arrhenius=(1.0e6, 0.0, 1.0e5), reversible=True)
        mech = make_mechanism([make_species("A", 0.030), make_species("B", 0.030)],
                              [rxn])
        assert mech.tables.no_reverse is None
        assert rate_constants(1000.0, mech)[1][0] > 0


class TestSlots:
    @pytest.mark.parametrize("K", [9, 20, 53])
    def test_generated_networks(self, K):
        mech = mechgen.generate_mechanism(K, 11)
        tb = mech.tables
        for side, nu, slots in (("reactants", mech.nu_forward, tb.reactant_slots),
                                ("products", mech.nu_reverse, tb.product_slots)):
            want = expanded_slots([getattr(r, side) for r in mech.reactions], K)
            np.testing.assert_array_equal(_slots(nu), want)
            np.testing.assert_array_equal(slots, want)
            assert slots.dtype == np.intp

    def test_no_reactions(self):
        mech = make_mechanism([make_species("A", 0.030)], [])
        for slots in (mech.tables.reactant_slots, mech.tables.product_slots):
            assert slots.shape == (0, 1) and slots.dtype == np.intp

    def test_empty_reactant_side(self):
        # A reaction built directly (no Mechanism, which would refuse its
        # mass balance) that makes one A and two B from nothing.
        rxn = Reaction(reactants={}, products={1: 2, 0: 1},
                       arrhenius=(1.0, 0.0, 0.0))
        for side in (rxn.reactants, rxn.products):
            np.testing.assert_array_equal(_slots(nu_matrix([side], 3)),
                                          expanded_slots([side], 3))
        np.testing.assert_array_equal(_slots(nu_matrix([rxn.reactants], 3)), [[3]])
        np.testing.assert_array_equal(_slots(nu_matrix([rxn.products], 3)),
                                      [[0, 1, 1]])
