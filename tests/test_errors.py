"""The naming rules: a solver's failure is re-raised as its own error, naming the
solver's parameters (`errors.naming`); a period asked of an orbit that has none
names the orbit and its class; and a point with no field is one error type."""

import pytest

from eulerpoisson import emden, errors, goldreich_weber, liouville
from eulerpoisson.emden import EmdenParams, OrbitClass
from eulerpoisson.errors import DomainError, IntegrationHalted, NotPeriodic, StepBudgetExceeded
from eulerpoisson.goldreich_weber import GWParams
from eulerpoisson.liouville import LiouvilleParams
from eulerpoisson.ode import IntegratorConfig

_FEW = IntegratorConfig(max_steps=5)
_ORBIT = EmdenParams(1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("module,source,solve,p,error,clause", [
    (emden, "integrate", lambda p: emden.integrate_scale(p, 50.0, _FEW), _ORBIT,
     StepBudgetExceeded, "in the scale factor of"),
    # a^3 underflows to 0 in the first rhs call
    (emden, "integrate", lambda p: emden.integrate_scale(p, 50.0),
     EmdenParams(1.0, 0.0, 1e-110, 0.0), DomainError, "in the scale factor of"),
    (emden, "integrate", lambda p: emden.period_by_simulation(p, _FEW), _ORBIT,
     StepBudgetExceeded, "(Sundman time) in the period of"),
    # the Sundman start's rhs is not finite; this start once named no parameter
    (emden, "integrate", emden.period_by_simulation, EmdenParams(1.0, 1e-160, 1e-170, 0.0),
     DomainError, "(Sundman time) in the period of"),
    (liouville, "integrate", lambda p: liouville.solve_profile(p, 20.0, _FEW),
     LiouvilleParams(1.0, 1.0, 0.0), StepBudgetExceeded, "in the profile of"),
    # e^710 overflows in f''(0), the core's first coefficient
    (liouville, "_core_start", lambda p: liouville.solve_profile(p, 20.0),
     LiouvilleParams(1.0, 1.0, 710.0), DomainError, "in the profile of"),
    (goldreich_weber, "integrate", lambda p: goldreich_weber.solve_gw_profile(p, _FEW),
     GWParams(3, 1.0, 1.0, 1.0), StepBudgetExceeded, "in the profile of"),
    # alpha_center^3 overflows in f''(0), the core's first coefficient
    (goldreich_weber, "_core_start", goldreich_weber.solve_gw_profile,
     GWParams(3, 1.0, 1.0, 1e200), DomainError, "in the profile of"),
], ids=["scale-halt", "scale-start", "period-halt", "period-start", "liouville-halt",
        "liouville-start", "gw-halt", "gw-start"])
def test_a_failure_is_its_own_error_naming_the_parameters(monkeypatch, module, source, solve, p,
                                                          error, clause):
    raised, raw_source = [], getattr(module, source)

    def recorded(*args, **kwargs):
        try:
            return raw_source(*args, **kwargs)
        except (IntegrationHalted, DomainError) as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(module, source, recorded)
    with pytest.raises(error) as e:
        solve(p)
    (raw,), named = raised, e.value
    assert type(named) is type(raw) is error
    assert str(named) == f"{raw} {clause} {p}"
    if isinstance(raw, IntegrationHalted):
        assert named.t == raw.t and named.trajectory is raw.trajectory


def test_a_halt_is_its_trajectory():
    # the time a halt names is the end of the run it carries, stored nowhere else
    with pytest.raises(StepBudgetExceeded) as e:
        emden.integrate_scale(EmdenParams(1.0, 1.0, 1.0, 1.0), 50.0, IntegratorConfig(max_steps=5))
    halt = e.value
    assert halt.t == halt.trajectory.t_end > 0.0 and "t" not in vars(halt)
    assert str(halt).startswith(f"exceeded 5 steps at t={halt.t!r} ")


@pytest.mark.parametrize("p,cls", [
    (EmdenParams(1.0, 1.0, 1.0, 0.0), OrbitClass.STEADY),
    (EmdenParams(1.0, 0.0, 1.0, 0.0), OrbitClass.FINITE_TIME_BLOWUP),
    (EmdenParams(-1.0, 1.0, 1.0, 1.0), OrbitClass.GLOBAL_NON_PERIODIC),
], ids=["steady", "collapsing", "global"])
@pytest.mark.parametrize("entry", [
    emden.turning_points, emden.period_by_quadrature, emden.period_by_simulation,
], ids=["turning_points", "period_by_quadrature", "period_by_simulation"])
def test_a_period_of_an_orbit_with_none_names_the_orbit_and_its_class(entry, p, cls):
    assert emden.classify(p) is cls
    with pytest.raises(NotPeriodic) as e:
        entry(p)
    assert repr(p) in str(e.value) and cls.value in str(e.value)


@pytest.mark.parametrize("error", [errors.OutsideRegion, errors.NoCompactSupport])
def test_a_region_error_is_an_out_of_range_error(error):
    # so one `except OutOfRange` drops every point with no field, whatever the family
    assert issubclass(error, errors.OutOfRange)
