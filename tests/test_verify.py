"""Input checks of the verification protocols: no check passes with no runs."""

import pytest

from postsamp.verify import (
    check_average_error_ratio,
    check_mode_collapse,
    check_posterior_recovery,
)


@pytest.mark.parametrize("check", [check_posterior_recovery, check_mode_collapse])
@pytest.mark.parametrize("trials", [0, -3])
def test_nonpositive_trials_rejected(check, trials):
    with pytest.raises(ValueError, match="trials"):
        check(1, p_values=(2,), trials=trials)


@pytest.mark.parametrize("check", [check_posterior_recovery, check_mode_collapse])
def test_minimization_checks_reject_empty_p_values(check):
    with pytest.raises(ValueError, match="p_values"):
        check(1, p_values=(), trials=1)


def test_ratio_check_rejects_empty_p_values():
    with pytest.raises(ValueError, match="p_values"):
        check_average_error_ratio(1, p_values=(), validation_size=100)


@pytest.mark.parametrize("p_values", [(1,), (2, 1, 8), (0,), (-4,)])
def test_ratio_check_rejects_p_below_2(p_values):
    """At P = 1 the target is 1 and a ratio of two single-sample errors meets it."""
    with pytest.raises(ValueError, match=">= 2"):
        check_average_error_ratio(1, p_values=p_values, validation_size=100)
