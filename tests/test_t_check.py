"""Every analytic curve, the sampler and both oracles check t with the one
helper, the same way."""

import numpy as np
import pytest

from linecox import (
    ModelParams,
    NegativeT,
    NonFinite,
    TBeyondClip,
    TurnPolicy,
    cdf_naive_recursion,
    cdf_one_turn_intersection,
    cdf_one_turn_point,
    cdf_ppp2d_reference,
    cdf_two_turn_bound,
    cdf_upper_intersection,
    cdf_zero_turn_intersection,
    chunk_lengths,
    one_turn_intersection_terms,
    sample_chunk,
    shortest_path,
    typical_point,
)
from realizations import crossings_within

P11 = ModelParams(1.0, 1.0)

_CURVES = {
    "naive": lambda t: cdf_naive_recursion(P11, t),
    "thm1": lambda t: cdf_one_turn_point(P11, t),
    "cor1": lambda t: cdf_zero_turn_intersection(P11, t),
    "cor2": lambda t: cdf_upper_intersection(P11, t),
    "ppp": lambda t: cdf_ppp2d_reference(0.5, t),
    "thm2": lambda t: cdf_one_turn_intersection(P11, t),
    "thm3-bound": lambda t: cdf_two_turn_bound(P11, t),
    "terms": lambda t: one_turn_intersection_terms(1.0, t),
}


@pytest.mark.parametrize("t, error", [(-0.5, NegativeT), (float("nan"), NonFinite),
                                      (float("inf"), NonFinite)])
@pytest.mark.parametrize("curve", sorted(_CURVES))
def test_every_curve_rejects_bad_t_alike(curve, t, error):
    with pytest.raises(error):
        _CURVES[curve](t)
    if curve != "terms":  # an array holding one bad entry fails whole
        with pytest.raises(error):
            _CURVES[curve](np.array([0.5, t]))


def test_terms_settle_to_zero_at_t_zero():
    assert one_turn_intersection_terms(1.0, 0.0) == (0.0, 0.0)


@pytest.mark.parametrize("curve", sorted(set(_CURVES) - {"terms"}))
def test_a_list_of_t_is_an_array_not_a_scalar(curve):
    got = _CURVES[curve]([0.0, 0.3])
    assert isinstance(got, np.ndarray) and got.shape == (2,)
    assert got[0] == 0.0 and got[1] == _CURVES[curve](0.3)


_CHUNK = sample_chunk(P11, typical_point(), 2.0, 1, 0, 2)
_SAMPLED = {
    "crossings_within": lambda t: crossings_within(_CHUNK.realization(0), 0, t),
    "shortest_path": lambda t: shortest_path(_CHUNK.realization(0), TurnPolicy.one_turn(), t),
    "chunk_lengths": lambda t: chunk_lengths(_CHUNK, TurnPolicy.one_turn(), t),
}


@pytest.mark.parametrize("t, error", [(-0.5, NegativeT), (float("nan"), NonFinite),
                                      (float("-inf"), NonFinite), (2.5, TBeyondClip)])
@pytest.mark.parametrize("site", sorted(_SAMPLED))
def test_sampled_sites_reject_bad_t_alike(site, t, error):
    """The same rule, plus TBeyondClip past the clip radius (2 here)."""
    with pytest.raises(error):
        _SAMPLED[site](t)
