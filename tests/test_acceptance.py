"""Acceptance suite: one test per headline identity, digit-exact at the
stated residual valuation, with the stated wall-clock budgets."""

import time

from reference import anderson_thakur_closed, compositions, star_dimension
from tmzv.motive import at_shape, special_point, star_shape, tmodule_of
from tmzv.scalars import APoly, RatFunc, field
from tmzv.tlayer import anderson_thakur
from tmzv.tmodule import (_shape_module, depth_one_period_check,
                          log_coeff_matrix, log_oracle_check, period_check)
from tmzv.vadic import NuPlace, zeta_nu_check
from tmzv.zeta import (carlitz_check, depth_one_check, inversion_check,
                       stark_unit_check, strange_formula_check,
                       trivialization_check)

from fractions import Fraction


def report(num, desc, ok):
    print("criterion %2d %s: %s" % (num, desc, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d failed: %s" % (num, desc)


def _field(q):
    return field(2, 2) if q == 4 else field(q)


def test_01_carlitz_identity():
    ok = True
    for q in (2, 3, 4):
        t0 = time.time()
        rep = carlitz_check(_field(q), prec=60)
        elapsed = time.time() - t0
        ok = ok and rep["pass"] and rep["residual_valuation"] >= 60
        ok = ok and elapsed < 5.0
    report(1, "exp_C(zeta_A(1)) = 1, q in {2,3,4}, prec 60", ok)


def test_02_depth_one():
    fs = field(2)
    t0 = time.time()
    ok = True
    for n in (1, 2, 3, 4):
        rep = depth_one_check(fs, n, prec=40)
        ok = (ok and rep["pass"] and rep["module_matches_tensor_power"]
              and rep["point_matches_jets"])
    ok = ok and (time.time() - t0) < 30.0
    report(2, "Exp_Cn(z_n) = Z_n, last coord Gamma_n zeta_A(n), n <= 4", ok)


def test_03_star_model():
    fs = field(2)
    t0 = time.time()
    ok = True
    for s in [(3, 1), (2, 1, 1)]:
        rep = stark_unit_check(star_shape(fs, s), prec=40, split=True)
        ok = ok and rep["pass"] and rep["split"]["recomposes"]
    ok = ok and (time.time() - t0) < 120.0
    report(3, "star model Exp(z) = v*, coords are -Gamma zeta, split", ok)


def test_04_weak_model_coordinates():
    fs = field(2)
    rep = stark_unit_check(at_shape(fs, (1, 2)), prec=30, split=False)
    report(4, "coords are (-1)^(r-ell) Gamma zeta* for s = (1,2)", rep["pass"])


def test_05_log_coefficient_oracle():
    ok = True
    shapes = [star_shape(field(2), (n,)) for n in (1, 2, 3, 4)]
    shapes += [star_shape(field(2), (3, 1)), star_shape(field(2), (2, 1, 1)),
               at_shape(field(2), (1, 2)), at_shape(field(3), (2, 4))]
    for shape in shapes:
        rep = log_oracle_check(shape, nmax=8, window=80)
        ok = ok and rep["pass"]
    # exact rational coefficients on the small shapes
    for shape in [at_shape(field(2), (1,)), at_shape(field(2), (2,)),
                  star_shape(field(3), (2,))]:
        E = _shape_module(shape)
        for n in range(4):
            ok = ok and log_coeff_matrix(shape, n) == E.log_coeff_recursive(n)
    report(5, "closed-form log coefficients = functional-equation recursion, "
              "n <= 8", ok)


def test_06_inclusion_exclusion():
    ok = True
    for q in (2, 3):
        fs = field(q)
        for s in compositions(6, 3):
            rep = inversion_check(at_shape(fs, s), prec=40)
            ok = ok and rep["pass"]
    report(6, "zeta*/zeta inclusion-exclusion, weight <= 6, depth <= 3", ok)


def test_07_strange_formula():
    t0 = time.time()
    ok = True
    for q in (2, 3):
        rep = strange_formula_check(field(q), prec=40)
        ok = ok and rep["pass"]
    ok = ok and (time.time() - t0) < 60.0
    report(7, "zeta_A(1, q^3-1) logarithm formula, q in {2,3}", ok)


def test_08_trivialization():
    ok = True
    for shape in [at_shape(field(3), (2, 4)), star_shape(field(2), (3, 1))]:
        rep = trivialization_check(shape, M=20, N=30)
        ok = ok and rep["pass"]
        ok = ok and all(v is None or v >= 30
                        for v in rep["last_row_residuals"])
    report(8, "Psi^(-1) = Phi Psi, Psi Upsilon = I, last row = MZVs", ok)


def _tau_matches(E, expect):
    z = RatFunc.zero(E.fs)
    tau = E.taus[0]
    return all(tau[i][j] == expect.get((i, j), z)
               for i in range(E.d) for j in range(E.d))


def test_09_golden_examples():
    fs3 = field(3)
    one3, z3 = RatFunc.one(fs3), RatFunc.zero(fs3)
    two3 = one3 + one3
    coup = RatFunc.from_apoly(APoly(fs3, (0, 1, 0, 2)))  # theta + 2 theta^3
    E = tmodule_of(at_shape(fs3, (2, 4)))
    ok = _tau_matches(E, {(5, 0): one3, (5, 6): -one3, (9, 6): one3})
    ok = ok and special_point(at_shape(fs3, (2, 4))) == [
        z3, z3, one3, z3, one3, coup, two3, z3, two3,
        RatFunc.from_apoly(APoly(fs3, (0, 2, 0, 1)))]
    E = tmodule_of(at_shape(fs3, (4, 2)))
    ok = ok and _tau_matches(E, {(2, 6): one3, (4, 6): one3, (5, 0): one3,
                                 (5, 6): coup, (7, 6): one3})
    ok = ok and special_point(at_shape(fs3, (4, 2))) == [
        z3, z3, one3, z3, one3, coup, z3, one3]

    fs2 = field(2)
    one2, z2 = RatFunc.one(fs2), RatFunc.zero(fs2)
    gam3 = RatFunc.from_apoly(APoly(fs2, (0, 1, 1)))
    E = tmodule_of(star_shape(fs2, (3, 1)))
    ok = ok and _tau_matches(E, {(2, 4): one2, (3, 0): one2, (3, 4): gam3,
                                 (4, 4): one2})
    ok = ok and [-x for x in special_point(star_shape(fs2, (3, 1)))] == \
        [z2, z2, z2, z2, one2]
    for q in (2, 3):
        fs = field(q)
        one, z = RatFunc.one(fs), RatFunc.zero(fs)
        E = tmodule_of(star_shape(fs, (2, 1, 1)))
        ok = ok and _tau_matches(E, {(3, 0): one, (3, 4): one, (5, 4): one,
                                     (5, 6): one, (6, 6): one})
        ok = ok and [-x for x in special_point(star_shape(fs, (2, 1, 1)))] \
            == [z] * 6 + [one]
    report(9, "golden module matrices and special points, byte-exact", ok)


def test_10_interpolation_polynomials():
    ok = True
    for q in (2, 3, 4):
        fs = _field(q)
        for n in range(q + 1, q * q + 1):
            ok = ok and anderson_thakur(fs, n) == anderson_thakur_closed(fs, n)
        for n in range(1, q * q + 1):
            H = anderson_thakur(fs, n)
            ok = ok and H.gauss_norm_exp() < Fraction(n * q, q - 1)
    report(10, "H_n closed form and Gauss-norm bound, q in {2,3,4}", ok)


def test_11_periods():
    fs = field(2)
    ok = True
    for shape in [at_shape(fs, (1, 2)), star_shape(fs, (2, 1))]:
        rep = period_check(shape, prec=30)
        ok = ok and rep["pass"]
    for n in (1, 2):
        rep = depth_one_period_check(fs, n, prec=30)
        ok = ok and rep["pass"]
    report(11, "Exp(lambda_ell) = 0 and lambda_1 = 1/Omega(theta)^n", ok)


def test_12_nu_adic():
    fs = field(2)
    place = NuPlace(APoly(fs, (1, 1)))
    t0 = time.time()
    ok = True
    for s in [(1,), (1, 3)]:
        rep = zeta_nu_check(fs, s, place, K=8)
        ok = ok and rep["pass"] and rep["bound_ok"] and rep["agree"]
        ok = ok and rep["terms"][0] >= 1
    ok = ok and (time.time() - t0) < 120.0
    report(12, "nu-adic zeta certified and contraction-independent", ok)


def test_13_star_dimension():
    ok = star_dimension((1, 1, 2)) == 7 and star_dimension((1, 3)) == 5
    ok = ok and all(star_dimension((n,)) == n for n in range(1, 10))
    report(13, "weak-model dimension count", ok)
