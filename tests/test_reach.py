"""`src/lyaq` holds only what a command or the benchmark can reach.

Every module-level function, class or constant in `src/lyaq`, and every
public method of such a class, must be named somewhere in `src/lyaq` or
`perfbench/` outside its own definition (for a constant, outside the
statement that assigns it). `lyaq/__init__.py` does not count: a re-export
reaches nothing. Names are read from the syntax tree (identifiers, and the
words of string constants such as perfbench's hook sites), so a docstring
or a comment that mentions a name does not count either. A definition that
only tests reach belongs in the test that uses it.

The match is by name, not by type: a method whose name some other object
also uses (`queue`, `t`) passes. The check catches what no code names at
all.

The same holds for settable values: every defaulted parameter of a function
or method in `src/lyaq` must be set by some call in `src/lyaq` or
`perfbench/`, by keyword, by position, or through `*` or `**`. A call
matches a definition by name (a class name calls its `__init__`). A
parameter that no call sets is a constant, and its default a value nothing
else ever takes. Conversely, a defaulted parameter that every such call
sets has a default that nothing takes: the parameter should be required.

`settable_values` counts what a user or a caller can set: config fields,
CLI options and defaulted parameters. The count is pinned, so a change that
moves it edits the pin and says so.
"""

import argparse
import ast
import re
from dataclasses import fields
from pathlib import Path

from lyaq.cli import build_parser
from lyaq.config import SystemConfig
from lyaq.dpp import DppConfig
from lyaq.sac import SacConfig

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lyaq"
PERFBENCH = ROOT / "perfbench"

# Definitions that stay with no caller yet, one reason each.
ALLOWED = {
    "compute_departure": "reference primitive: test_properties checks EdgeCloudEnv.step against it",
    "compute_offload": "reference primitive: test_properties checks EdgeCloudEnv.step against it",
    "queue_update": "reference primitive: test_properties checks EdgeCloudEnv.step against it",
    "actual_cpu_use": "reference primitive: test_properties checks EdgeCloudEnv.step against it",
    "queue_slope_ok": "paper check: the per-episode stability verdict of ROADMAP item 2",
    "check_theorem1_conditions": "paper check: the Theorem-1 verdict of ROADMAP items 2 and 3",
    "power_reward_bound": "paper check: the Theorem-1 constants of ROADMAP items 2 and 3",
    "episode_reward_identities": "paper check: the reward-sum identities of ROADMAP item 3",
    "StabilityBound": "report type of power_reward_bound, a paper check",
    "Theorem1Report": "report type of check_theorem1_conditions, a paper check",
    "IdentityReport": "report type of episode_reward_identities, a paper check",
}

# Defaulted parameters that stay with no caller setting them, one reason each.
ALLOWED_DEFAULTS = {
    "queue_slope_ok(frac)": "paper check: the slope tolerance of ROADMAP item 2's verdict",
    "check_theorem1_conditions(r_min)": "paper check: the reward floor of the Theorem-1 chain",
    "IdentityReport.ok(rel_tol)": "paper check: the tolerance of the reward-sum identities",
}

# Defaulted parameters that every call sets, one reason each.
ALLOWED_ALWAYS_SET = {
    "AppProfile.from_bounds(name)": "config file format: the default is what makes an "
                                    "app's `name` key optional in config_from_dict",
}


def _docstrings(tree):
    """ids of the docstring constants of a module and its defs."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(id(first.value))
    return out


def _uses(path):
    """(name, line) for every identifier and string-constant word in path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    skip = _docstrings(tree)
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            uses.append((node.attr, node.lineno))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            uses += [(word, node.lineno) for word in re.findall(r"\w+", node.value)]
    return uses


def _definitions(path):
    """(qualified name, name, first line, last line) of every module-level
    function, class or constant and every public method of a module-level
    class."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(name.id, name.id, node.lineno, node.end_lineno)
                    for target in targets for name in ast.walk(target)
                    if isinstance(name, ast.Name)]
            continue
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        start = min([node.lineno] + [d.lineno for d in node.decorator_list])
        out.append((node.name, node.name, start, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    start = min([item.lineno] + [d.lineno for d in item.decorator_list])
                    out.append((f"{node.name}.{item.name}", item.name, start,
                                item.end_lineno))
    return out


def unreached():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    uses = {path: _uses(path) for path in modules + sorted(PERFBENCH.glob("*.py"))}
    missing = []
    for path in modules:
        for qualname, name, first, last in _definitions(path):
            if any(used == name and not (where == path and first <= line <= last)
                   for where, found in uses.items() for used, line in found):
                continue
            missing.append(f"{path.name}:{qualname}")
    return missing


def test_every_definition_is_reached_outside_tests():
    missing = [m for m in unreached() if m.split(":", 1)[1] not in ALLOWED]
    assert not missing, ("named nowhere in src/lyaq or perfbench/ outside its own "
                         f"definition: {missing}")


def test_every_allowlist_entry_names_a_definition():
    # an entry whose definition went is stale
    defined = {qualname for path in SRC.glob("*.py")
               for qualname, *_ in _definitions(path)}
    assert sorted(set(ALLOWED) - defined) == []


def _defaulted(path):
    """(qualified name, call name, parameter, position) of every defaulted
    parameter of a module-level function or a method of a module-level
    class; position counts the positional parameters after self or cls, and
    is None for a keyword-only one."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            fns = [(node.name, node.name, node, False)]
        elif isinstance(node, ast.ClassDef):
            fns = [(f"{node.name}.{item.name}",
                    node.name if item.name == "__init__" else item.name, item,
                    not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                            for d in item.decorator_list))
                   for item in node.body if isinstance(item, ast.FunctionDef)]
        else:
            continue
        for qualname, called, fn, bound in fns:
            args = fn.args
            positional = (args.posonlyargs + args.args)[int(bound):]
            first = len(positional) - len(args.defaults)
            out += [(qualname, called, arg.arg, i)
                    for i, arg in enumerate(positional) if i >= first]
            out += [(qualname, called, arg.arg, None)
                    for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None]
    return out


def _calls(paths):
    """Every call in paths, by the name it calls (f(...) or x.f(...))."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    return calls


def _sets(call, param, position):
    if any(kw.arg in (None, param) for kw in call.keywords):  # name=, **kwargs
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):  # *args
        return True
    return position is not None and len(call.args) > position


def _defaults_and_setters():
    """(path:qualname(param), one bool per call by that name: does it set
    the parameter) for every defaulted parameter in src/lyaq."""
    modules = sorted(SRC.glob("*.py"))
    calls = _calls(modules + sorted(PERFBENCH.glob("*.py")))
    return [(f"{path.name}:{qualname}({param})",
             [_sets(call, param, position) for call in calls.get(called, [])])
            for path in modules
            for qualname, called, param, position in _defaulted(path)]


def unset_defaults():
    return [label for label, sets in _defaults_and_setters() if not any(sets)]


def test_every_default_is_overridden_by_some_caller():
    unset = [u for u in unset_defaults() if u.split(":", 1)[1] not in ALLOWED_DEFAULTS]
    assert not unset, ("defaulted parameters that no call in src/lyaq or perfbench/ "
                       f"sets: {unset}")


def always_set_defaults():
    return [label for label, sets in _defaults_and_setters() if sets and all(sets)]


def test_no_default_is_overridden_by_every_caller():
    always = [u for u in always_set_defaults()
              if u.split(":", 1)[1] not in ALLOWED_ALWAYS_SET]
    assert not always, ("defaulted parameters that every call in src/lyaq and "
                        f"perfbench/ sets: {always}")


def test_every_default_allowlist_entry_names_a_parameter():
    defined = {f"{qualname}({param})" for path in SRC.glob("*.py")
               for qualname, _, param, _ in _defaulted(path)}
    assert sorted((set(ALLOWED_DEFAULTS) | set(ALLOWED_ALWAYS_SET)) - defined) == []


def settable_values():
    """(config fields, CLI options, defaulted parameters): the fields of
    SystemConfig, SacConfig and DppConfig; every option of each `lyaq`
    subcommand, its --help included and positionals not; every defaulted
    parameter in src/lyaq."""
    config = sum(len(fields(cls)) for cls in (SystemConfig, SacConfig, DppConfig))
    [commands] = [action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    options = sum(1 for parser in commands.choices.values()
                  for action in parser._actions if action.option_strings)
    defaulted = sum(len(_defaulted(path)) for path in SRC.glob("*.py"))
    return config, options, defaulted


def test_settable_values_are_pinned():
    # a change that adds or removes a setting edits this pin, and says so
    assert settable_values() == (22, 66, 10)
