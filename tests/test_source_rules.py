"""Rules about where a decision lives in the source, checked by reading the modules."""

import ast
import re
from pathlib import Path

import pdakit

PACKAGE = Path(pdakit.__file__).parent


def test_only_errors_decides_that_an_allocation_failed():
    # errors.allocating is the one rule that turns numpy refusing an
    # allocation into an input error; a module naming MemoryError has its own copy.
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "errors.py" in modules
    naming = [str(path.relative_to(PACKAGE)) for path in modules
              if path.name != "errors.py"
              and re.search(r"\bMemoryError\b", path.read_text(encoding="utf-8"))]
    assert naming == []


def test_only_errors_decides_what_a_callers_integer_is():
    # errors.index is the one rule that reads an integer a caller hands the
    # library; a module naming operator.index has its own copy of it.
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "errors.py" in modules
    naming = [str(path.relative_to(PACKAGE)) for path in modules
              if path.name != "errors.py"
              and re.search(r"\boperator\.index\b|\bfrom operator import\b.*\bindex\b",
                            path.read_text(encoding="utf-8"))]
    assert naming == []


def test_only_errors_decides_what_a_callers_cells_are():
    # errors.cells is the one rule that reads a caller's (i, j) cells; a module
    # testing an array's dtype kind has its own, and a mixed tuple passes True as 1 there.
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "errors.py" in modules
    naming = [str(path.relative_to(PACKAGE)) for path in modules
              if path.name != "errors.py"
              and re.search(r"\bdtype\.kind\b", path.read_text(encoding="utf-8"))]
    assert naming == []


def test_only_errors_decides_what_a_grid_entry_is():
    # errors.int64s is the one rule that reads a grid entry or a color; a module
    # naming np.integer tests an entry's type itself, and takes what int64 cannot hold.
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "errors.py" in modules
    naming = [str(path.relative_to(PACKAGE)) for path in modules
              if path.name != "errors.py"
              and re.search(r"\bnp\.integer\b", path.read_text(encoding="utf-8"))]
    assert naming == []


def test_only_pda_computes_binomials():
    # Whether a shape is a t-subset one is decided in pda, where a lower bound
    # refuses a binomial far past the rows asked for; a module calling
    # math.comb itself skips that bound.
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "pda.py" in modules
    naming = [str(path.relative_to(PACKAGE)) for path in modules
              if path.name != "pda.py"
              and re.search(r"\bcomb\b", path.read_text(encoding="utf-8"))]
    assert naming == []


def test_cachesim_xors_bytes_only_in_its_xor_kernel():
    # cachesim._xor_runs is the one XOR kernel of delivery and decoding; an
    # XOR anywhere else in the module is a second copy of it.
    tree = ast.parse((PACKAGE / "cachesim.py").read_text(encoding="utf-8"))
    kernels = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_xor_runs"]
    assert len(kernels) == 1
    tree.body.remove(kernels[0])
    xor_names = {"bitwise_xor", "xor", "__xor__", "__ixor__"}
    xors = [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.BitXor)
            or isinstance(node, ast.Name) and node.id in xor_names
            or isinstance(node, ast.Attribute) and node.attr in xor_names]
    assert xors == []


def test_cachesim_tiles_only_in_its_xor_kernel():
    # How many rows one XOR pass gathers is decided in _xor_runs alone; a
    # caller naming _BLOCK tiles its runs a second time, or skips it.
    tree = ast.parse((PACKAGE / "cachesim.py").read_text(encoding="utf-8"))
    kernel, = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_xor_runs"]
    setting, = [node for node in tree.body if isinstance(node, ast.Assign)
                and [ast.unparse(target) for target in node.targets] == ["_BLOCK"]]
    tree.body.remove(kernel)
    tree.body.remove(setting)
    assert any(isinstance(node, ast.Name) and node.id == "_BLOCK" for node in ast.walk(kernel))
    naming = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Name) and node.id == "_BLOCK"
              or isinstance(node, ast.Attribute) and node.attr == "_BLOCK"]
    assert naming == []
