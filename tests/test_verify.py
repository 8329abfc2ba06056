import pytest

from eigencd import verify


@pytest.mark.parametrize("seed", range(10))
def test_engine_suite_passes_every_row(seed):
    failed = [(name, detail) for name, passed, detail in verify.engine_suite(seed)
              if not passed]
    assert failed == []
