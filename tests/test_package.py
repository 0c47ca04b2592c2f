import fairbench


def test_every_export_exists_once():
    missing = [name for name in fairbench.__all__ if not hasattr(fairbench, name)]
    assert missing == []
    assert len(set(fairbench.__all__)) == len(fairbench.__all__)
