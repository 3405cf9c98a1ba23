import bugloc


def test_every_export_resolves():
    for name in bugloc.__all__:
        assert getattr(bugloc, name, None) is not None, name
