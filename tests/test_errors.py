import ast
from pathlib import Path

import pytest

import kinnet


def test_np_errstate_is_written_only_in_errors_py():
    # the package's one floating-point policy is errors._ieee_policy: every
    # numeric entry point enters it, and no module writes a policy of its own
    package = Path(kinnet.__file__).parent
    found = [f"{path.name}:{n}" for path in sorted(package.glob("*.py"))
             if path.name != "errors.py"
             for n, line in enumerate(path.read_text().splitlines(), 1)
             if "errstate" in line]
    assert found == []


def test_a_kernel_table_is_read_only_in_the_model_and_the_junction_moments():
    # B, the gain's dense builds and the engine's route all come from one read
    # of each kernel's table, operators._junction_moments
    package = Path(kinnet.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "model.py":
            continue
        tree = ast.parse(path.read_text())
        allowed = [range(f.lineno, f.end_lineno + 1) for f in tree.body
                   if path.name == "operators.py" and isinstance(f, ast.FunctionDef)
                   and f.name == "_junction_moments"]
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "_table"
                  and not any(node.lineno in lines for lines in allowed)]
    assert found == []


def _package_trees():
    package = Path(kinnet.__file__).parent
    return [(path.name, ast.parse(path.read_text())) for path in sorted(package.glob("*.py"))]


def _operators_defs(trees, kind, name):
    return [f for file, tree in trees if file == "operators.py" for f in tree.body
            if isinstance(f, kind) and f.name == name]


def test_junction_moments_takes_spec_and_grid_only():
    # B comes in one scale, which the gain and the engine share: its builder
    # takes no option
    (builder,) = _operators_defs(_package_trees(), ast.FunctionDef, "_junction_moments")
    args = builder.args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["spec", "grid"]
    assert args.vararg is None and args.kwarg is None


def test_a_dense_b_is_built_only_for_the_gain():
    # _GainFactors.dense has one caller, _GainFactors.gain: the core, pd_norm
    # and the engine read omega and U
    trees = _package_trees()
    (factors,) = _operators_defs(trees, ast.ClassDef, "_GainFactors")
    (gain,) = [f for f in factors.body if isinstance(f, ast.FunctionDef) and f.name == "gain"]
    callers = [(file, node.lineno) for file, tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "dense"]
    assert callers
    assert [(file, line) for file, line in callers if not (
        file == "operators.py" and gain.lineno <= line <= gain.end_lineno)] == []


def _call_name(call: ast.Call):
    f = call.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def test_the_gain_reads_what_depends_on_the_spec_alone():
    # each measure's total variation is built with the measure: operators.py
    # takes no Laplace transform at shift 0
    (ops,) = [tree for file, tree in _package_trees() if file == "operators.py"]
    calls = [node for node in ast.walk(ops) if isinstance(node, ast.Call)]
    assert [c.lineno for c in calls if _call_name(c) == "measure_total_variation"] == []
    assert [c.lineno for c in calls if _call_name(c) in ("_laplace", "measure_laplace")
            and isinstance(c.args[1], ast.Constant) and c.args[1].value == 0] == []


@pytest.mark.parametrize("owner, attribute", [("DelayMeasure", "_log_bound_term"),
                                              ("NetworkSpec", "_bounds")])
def test_each_owner_builds_its_derived_data_at_construction(owner, attribute):
    # in __post_init__, never lazily: a cached_property would build them
    # inside the first call that reads them
    (model,) = [tree for file, tree in _package_trees() if file == "model.py"]
    (cls,) = [c for c in model.body if isinstance(c, ast.ClassDef) and c.name == owner]
    (post_init,) = [f for f in cls.body
                    if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"]
    assigned = [node.args[1].value for node in ast.walk(post_init)
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__"
                and isinstance(node.args[1], ast.Constant)]
    assert attribute in assigned
    assert attribute not in [f.name for f in cls.body if isinstance(f, ast.FunctionDef)]
