import os
import shutil
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]


@pytest.fixture
def scratch(request):
    """A fresh directory under veilbench/.work/, removed afterwards."""
    path = os.path.join(BENCH, ".work", f"test-{request.node.name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def make_workload(scratch):
    """Build a smoke-sized workload whose files live in `scratch`."""
    from workloads import WORKLOADS

    def make(name, seed=3):
        work = os.path.join(scratch, name)
        os.makedirs(work)
        return WORKLOADS[name](ROOT, work, seed, 1, True)

    return make
