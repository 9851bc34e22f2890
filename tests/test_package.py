import aet2d


def test_every_exported_name_resolves():
    assert [name for name in aet2d.__all__ if not hasattr(aet2d, name)] == []
