import srrw_lab


def test_every_exported_name_resolves_once():
    names = srrw_lab.__all__
    assert sorted(set(names)) == sorted(names), "a name is exported twice"
    assert [name for name in names if not hasattr(srrw_lab, name)] == []
    namespace = {}
    exec("from srrw_lab import *", namespace)
    assert set(names) <= set(namespace)
