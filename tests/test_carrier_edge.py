"""Points and results in (0, 1e-300] at rho = inf and sigma = inf, which the carrier test ``1 + rho*t > 0`` admits:
every public entry point returns finite values or raises DomainError, and the CLI exits 0 or 2."""
from __future__ import annotations

import math

import pytest

from regvar.asymptotics import beck_partition, beck_riemann_sum, fit_kappa, goldie_sum
from regvar.cli import main
from regvar.haar import Interval, haar_integrate, haar_interval_measure
from regvar.kernels import KernelParams, kernel_eval, kernel_inverse
from regvar.popa import INFINITY, ZERO, DomainError, PopaParam, PopaPoint, circle, eta, inverse, iso_log, norm, power
from regvar.subadd import GridSpec, subadditivity_check

I, Z, P1 = INFINITY, ZERO, PopaParam(1.0)
TINY = [5e-324, 1e-320, 1e-310, 1e-300]
one = lambda t: 1.0


def _halvings(t: float) -> int:
    """The n with 0.5**n nearest t from above, so that power(INFINITY, 0.5, n) is a result in (0, 1e-300]."""
    return int(-math.log2(t))


CALLS = {
    "PopaPoint": lambda t: PopaPoint(I, t).value,
    "eta": lambda t: eta(I, t),
    "iso_log": lambda t: iso_log(I, t),
    "power of t": lambda t: PopaPoint(I, power(I, t, 3)).value,  # as the CLI reads it: +-inf past the float range
    "power of t, n = -1": lambda t: PopaPoint(I, power(I, t, -1)).value,
    "power to t": lambda t: PopaPoint(I, power(I, 0.5, _halvings(t))).value,
    "norm": lambda t: norm(PopaPoint(I, t)),
    "inverse": lambda t: inverse(PopaPoint(I, t)).value,
    "circle to 0": lambda t: circle(PopaPoint(I, t), PopaPoint(I, 1e-10)).value,
    "circle up": lambda t: circle(PopaPoint(I, t), PopaPoint(I, 1e10)).value,
    "circle to t": lambda t: circle(PopaPoint(I, 1e-150), PopaPoint(I, t / 1e-150)).value,
    "measure (t, 1)": lambda t: haar_interval_measure(Interval(I, t, 1.0)),
    "measure (t, 2t)": lambda t: haar_interval_measure(Interval(I, t, 2.0 * t)),
    "integrate one": lambda t: haar_integrate(one, Interval(I, t, 1.0)),
    "integrate x": lambda t: haar_integrate(lambda x: x, Interval(I, t, 1.0)),
    "kernel_eval inf -> 0": lambda t: kernel_eval(KernelParams(I, Z, 1.0), t),
    "kernel_eval inf -> inf": lambda t: kernel_eval(KernelParams(I, I, 1.0), t),
    "kernel_eval inf -> inf to t": lambda t: kernel_eval(KernelParams(I, I, 2.0), math.sqrt(t)),
    "kernel_eval 0 -> inf to t": lambda t: kernel_eval(KernelParams(Z, I, 1.0), math.log(t)),
    "kernel_eval 1 -> inf to t": lambda t: kernel_eval(KernelParams(P1, I, 1.0), -1.0 + t),
    "kernel_inverse inf -> inf": lambda t: kernel_inverse(KernelParams(I, I, 1.0), t),
    "kernel_inverse 0 -> inf": lambda t: kernel_inverse(KernelParams(Z, I, 1.0), t),
    "kernel_inverse 1 -> inf": lambda t: kernel_inverse(KernelParams(P1, I, 1.0), t),
    "kernel_inverse inf -> 0 to t": lambda t: kernel_inverse(KernelParams(I, Z, 1.0), math.log(t)),
    "fit_kappa": lambda t: fit_kappa([(t, t), (2.0, 2.0)], I, I),
    "fit_kappa, square": lambda t: fit_kappa([(math.sqrt(t), t), (2.0, 4.0)], I, I),
    "beck sum, delta t": lambda t: beck_riemann_sum(one, I, t, 2.0),
    "beck sum, u t": lambda t: beck_riemann_sum(one, I, 2.0, t),
    "beck partition, delta t": lambda t: beck_partition(I, t, 2.0),
    "goldie sum, delta t": lambda t: goldie_sum(1.0, lambda x: x, I, t, 3),
    "goldie sum to t": lambda t: goldie_sum(1.0, lambda x: x, I, 0.5, _halvings(t) + 1),
    "subadd x": lambda t: subadditivity_check(lambda x: x, I, I, GridSpec(t, 1.0, 8, "geometric")).worst_violation,
    "subadd square": lambda t: subadditivity_check(lambda x: x * x, I, I, GridSpec(t, 1.0, 8, "geometric")).worst_violation,
    "subadd log": lambda t: subadditivity_check(math.log, I, Z, GridSpec(t, 1.0, 8, "geometric")).worst_violation,
    "subadd to t": lambda t: subadditivity_check(lambda x: t, Z, I, GridSpec(0.0, 1.0, 4)).worst_violation,
}


@pytest.mark.parametrize("t", TINY)
@pytest.mark.parametrize("name", CALLS)
def test_finite_or_domain_error(name, t):
    try:
        got = CALLS[name](t)
    except DomainError:
        return
    assert all(map(math.isfinite, got if isinstance(got, tuple) else (got,))), got


@pytest.mark.parametrize("t", TINY)
def test_tiny_points_are_members(t):
    assert PopaPoint(I, t).value == eta(I, t) == t
    assert iso_log(I, t) == math.log(t)
    assert norm(PopaPoint(I, t)) == haar_interval_measure(Interval(I, t, 1.0)) == -math.log(t)
    assert power(I, 0.5, 1074) == 5e-324 and circle(PopaPoint(I, t), PopaPoint(I, 2.0)).value == 2.0 * t
    kp = KernelParams(I, I, 1.0)
    assert kernel_eval(kp, t) == kernel_inverse(kp, t) == pytest.approx(t, rel=1e-13)
    assert fit_kappa([(t, t), (2.0, 2.0)], I, I) == (1.0, 0.0)


@pytest.mark.parametrize("t", ["5e-324", "1e-320", "1e-310", "1e-300"])
@pytest.mark.parametrize("argv", [
    ["group", "norm", "--rho", "inf", "--", "T"],
    ["group", "inverse", "--rho", "inf", "--", "T"],
    ["group", "eta", "--rho", "inf", "--", "T"],
    ["group", "circle", "--rho", "inf", "--", "T", "1e-10"],
    ["group", "power", "--rho", "inf", "--", "T", "2"],
    ["transform", "measure", "--rho", "inf", "--lo", "T", "--hi", "1"],
    ["transform", "integrate", "--rho", "inf", "--f", "x", "--lo", "T", "--hi", "1"],
    ["kernel", "eval", "--rho", "inf", "--sigma", "inf", "--kappa", "1", "--t", "T"],
    ["kernel", "inverse", "--rho", "0", "--sigma", "inf", "--kappa", "1", "--z", "T"],
    ["beck", "sum", "--rho", "inf", "--delta", "T", "--u", "2"],
    ["beck", "goldie-sum", "--rho", "inf", "--delta", "T", "--i", "3", "--g", "x"],
    ["subadd", "check", "--rho", "inf", "--sigma", "inf", "--s", "square", "--lo", "T", "--hi", "1", "--n", "6",
     "--spacing", "geometric"],
])
def test_cli_exits_0_or_2(capsys, argv, t):
    code = main([t if word == "T" else word for word in argv])
    out, err = capsys.readouterr()
    assert (code, err == "") in ((0, True), (2, False)) and "Traceback" not in err, (code, out, err)
