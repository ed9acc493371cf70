import importlib.util
import os
import time

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "line_reach.py")

# sign(5) skips the branch on x < 0; of its lines, the header of its def is not counted
PLANTED = """\
def sign(x):
    if x < 0:
        def negative():
            return -1
        return negative()
    return 1
"""


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_line_reach_lists_exactly_the_untaken_lines_but_a_def_header(tmp_path):
    path = tmp_path / "planted.py"
    path.write_text(PLANTED)
    tool = load("line_reach", TOOL)
    start = time.perf_counter()
    lines = tool.unreached(str(tmp_path), lambda: load("planted", str(path)).sign(5))
    assert time.perf_counter() - start < 0.25
    assert lines == [(os.path.realpath(path), 4), (os.path.realpath(path), 5)]
