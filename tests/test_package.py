import dirac2d
from dirac2d import oracle, specfun, spectrum, units, wavefn

LAYERS = (units, specfun, spectrum, wavefn, oracle)


def test_public_names_are_the_union_of_the_layers():
    union = [name for module in LAYERS for name in module.__all__]
    assert len(set(union)) == len(union)
    assert sorted(dirac2d.__all__) == sorted(union)


def test_each_name_is_the_layers_own_object():
    for module in LAYERS:
        for name in module.__all__:
            assert getattr(dirac2d, name) is getattr(module, name), name
