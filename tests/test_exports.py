import difftrace


def test_every_exported_name_resolves():
    # A signature change or a rename must not leave __all__ pointing at a
    # name the package no longer binds.
    assert len(set(difftrace.__all__)) == len(difftrace.__all__)
    for name in difftrace.__all__:
        assert getattr(difftrace, name, None) is not None, name
