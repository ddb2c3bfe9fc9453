import gkheat


def test_every_exported_name_resolves():
    assert len(set(gkheat.__all__)) == len(gkheat.__all__)
    for name in gkheat.__all__:
        assert getattr(gkheat, name) is not None, name


def test_star_import():
    namespace = {}
    exec("from gkheat import *", namespace)
    assert set(gkheat.__all__) <= set(namespace)
