"""The bundled presets against the clock-and-shift *-representations of
``reps``, which share nothing with the preset loader or the engine: a
normal form keeps a word's image, and the star is the dagger."""

import pytest
from hypothesis import given, settings, strategies as st

from reps import FACTORS, ClockShift

# example budget: 100 draws per property, under 2 s for the module
cases = st.tuples(
    st.sampled_from(["ex1", "ex2"]), st.sampled_from(sorted(FACTORS)), st.sampled_from([2, 3])
)


def _case(request, tower, factor):
    spec = request.getfixturevalue(tower)
    return (spec.a_spec if factor == "A" else spec.p_spec).presentation


@given(cases, st.data())
@settings(max_examples=100, deadline=None)
def test_a_normal_form_has_the_image_of_its_word(request, case, data):
    tower, factor, n = case
    p, rho = _case(request, tower, factor), ClockShift(factor, n)
    word = data.draw(st.lists(st.sampled_from(FACTORS[factor][0]), max_size=6))
    assert rho.element(p.normal_form(word)) == rho.word(word), word


@given(cases, st.data())
@settings(max_examples=100, deadline=None)
def test_the_star_is_the_dagger(request, case, data):
    tower, factor, n = case
    p, rho = _case(request, tower, factor), ClockShift(factor, n)
    word = data.draw(st.lists(st.sampled_from(FACTORS[factor][0]), max_size=6))
    assert rho.element(p.normal_form(word).star()) == rho.dagger(rho.word(word)), word


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("factor", sorted(FACTORS))
@pytest.mark.parametrize("tower", ["ex1", "ex2"])
def test_star_partners_have_dagger_images(request, tower, factor, n):
    p, rho = _case(request, tower, factor), ClockShift(factor, n)
    for g in p.generators:
        assert rho.element(p.gen(p.star_map[g])) == rho.dagger(rho.element(p.gen(g))), g
