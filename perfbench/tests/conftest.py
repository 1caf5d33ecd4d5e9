import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from workloads import Session, Workload  # noqa: E402

TINY = Workload(
    name="tiny",
    num_train=24,
    num_test=6,
    task="sgcls",
    model="dual_encoder",
    bias_kind="pb",
    learning_rate=0.05,
    iterations=2,
    grid=(0.0, 1.0),
    eval_chunk=4,
    detector_sharpness=1.0,
)


@pytest.fixture
def tiny_session(tmp_path):
    """A dual-encoder SGCls session small enough to run in a second."""
    return Session(TINY, seed=0, workdir=str(tmp_path))
