"""The front end's one-pass readers against the routes they replace.

Each reader of command lines, expression words, tree pairs and payloads
reads its input once; the routes it replaced are kept here as oracles:
the top-level argparse route of `main`, the recursive tree reader and
tree partition and the loaders that validated a table before moving it.
The old loaders also read quotient breakpoints, inferred the exponents
of a table without "ks" and routed a breakpoint without "a" to the
quotient reader; the one table reader takes ring elements and stated
exponents only, so it matches them on every other payload, and those
three forms are tested on their own.
"""

import argparse
import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taut import cli, expr
from taut.circle import CircleMap, _partition, leaf_exponents
from taut.errors import BudgetError, NotInRing, SchemaError, TautError
from taut.expr import MAX_POWER_WORK, evaluate_str
from taut.lift import LiftMap
from taut.plmap import PLMap
from taut.ring import QTau, TAU, ZTau, is_tau_power, json_coeff, json_int, tau_pow

BENCH = Path(__file__).resolve().parent.parent / "bench"


# -- command lines ------------------------------------------------------------

def _top_level_main(argv):
    """main as it read every command line: through the top-level parser,
    once a lone "--" that ends the line is dropped."""
    if argv[-1:] == ["--"] and argv.count("--") == 1:
        argv = argv[:-1]
    try:
        args = cli._build_parser()[0].parse_args(argv)
    except cli._UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    try:
        return cli._dispatch(args)
    except BudgetError as exc:
        cli._emit_error(args, exc, kind="budget")
        return 2
    except (TautError, ValueError, ZeroDivisionError) as exc:
        cli._emit_error(args, exc, kind="domain")
        return 1


def _outcome(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # -h and --help print and exit
            code = ("exit", exc.code)
    return code, out.getvalue(), err.getvalue()


ARGVS = [
    [], ["-h"], ["--help"], ["nosuch"], ["nosuch", "trans(1)"], ["sc", "x"],
    ["--json", "scl", "trans(1)"], ["--", "scl", "trans(1)"],
    ["scl"], ["check"], ["connect", "1-t"],
    ["scl", "--max-den", "0", "--", "trans(1)"],
    ["scl", "--max-den", "x", "trans(1)"], ["scl", "--max-d", "5", "trans(1)"],
    ["scl", "--json", "--", "trans(1)"], ["scl", "trans(1)", "--json"],
    ["rot", "trans(t)", "--bogus"], ["rot", "trans(t)", "extra"],
    ["eval", "--", "--json"], ["eval", "rot(t) *"], ["eval", "--json", "rot(("],
    ["connect", "-27+45*t", "t"], ["connect", "--", "1-t", "t"],
    ["connect", "1-t", "t", "--tuple"], ["factor", "rot(t)", "--depth", "0"],
    ["defect", "--n", "x"], ["defect", "--n", "2"],
    ["random", "--flavor", "Q"], ["random", "--size", "3", "--seed", "5"],
    ["check", "comm(rot(t), rot(1-t))"], ["check", "--json", "nosuch(1)"],
    ["scl", "--max-den=5", "trans(1)"], ["scl", "--max-den"],
    ["scl", "--json", "--json", "--", "trans(1)"],
    ["rot", "--max-den", "5", "--max-den", "7", "trans(t)"],
    ["defect", "--seed", "-3", "--json"], ["random", "--flavor", "Lift", "--json"],
    ["check", "--", "--", "x"], ["eval", "-"], ["eval", ""],
    ["connect", "t", "--", "1-t"], ["scl", "trans(1)", "--json", "--"],
    ["scl", "trans(1)", "--"], ["connect", "1-t", "t", "--json", "--"],
    ["scl", "--", "--"], ["scl", "--json", "--", "trans(1)", "--"],
    *[[name, "-h"] for name in ("eval", "rot", "scl", "check", "connect",
                                "factor", "defect", "random")],
]


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_main_matches_the_top_level_route(argv):
    assert _outcome(cli.main, argv) == _outcome(_top_level_main, argv)


@pytest.mark.parametrize("argv", [["scl", "trans(1)", "--json"],
                                  ["connect", "1-t", "t", "--json"],
                                  ["scl", "trans(1)"]], ids=" ".join)
def test_a_lone_trailing_dash_dash_is_dropped(argv):
    code, out, err = _outcome(cli.main, argv + ["--"])
    assert (code, out, err) == _outcome(cli.main, argv)
    assert code == 0 and out and not err


def test_a_second_dash_dash_is_left_to_argparse():
    code, out, err = _outcome(cli.main, ["scl", "--", "--"])
    assert code == 1 and "ExprSyntaxError" in err  # "--" read as the expression
    code, out, err = _outcome(cli.main, ["scl", "--json", "--", "trans(1)", "--"])
    assert code == 3 and "unrecognized arguments: --" in err


def test_main_reads_sys_argv_by_default(monkeypatch):
    argv = ["scl", "--json", "--", "trans(1)"]
    monkeypatch.setattr(sys, "argv", ["taut"] + argv)
    assert _outcome(lambda _: cli.main(), []) == _outcome(cli.main, argv)


def _parse_args_refused(*args, **kwargs):
    raise AssertionError("argparse read a plain command line")


def test_benchmark_command_lines_are_read_directly(tmp_path, monkeypatch):
    answer = tmp_path / "answer.json"
    code, out, _ = _outcome(cli.main, ["scl", "--json", "--", "trans(t)"])
    answer.write_text(out)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", _parse_args_refused)
    for argv in (["scl", "--json", "--", "trans(1-t)"],
                 ["check", "--json", "--", str(answer)],
                 ["connect", "--json", "--", "1-t", "t"],
                 ["connect", "--json", "--derived", "--", "1-t", "t"],
                 ["factor", "--json", "--", "rot(t)"],
                 ["defect", "--json", "--n", "2"],
                 ["defect", "--json", "--search", "--samples", "2", "--seed", "1"]):
        code, out, err = _outcome(cli.main, argv)
        assert (code, err) == (0, ""), argv
        assert "error" not in json.loads(out), argv


COMMANDS = sorted(cli._build_parser()[1])
VALUES = ["1", "7", "12", "0", "-3", "x", "", "Lift", "F_tau", "T_tau", "Q", "-"]
POSITIONALS = ["trans(1)", "1-t", "t", "-", "", "-x", "-27+45*t", "--json", "a=b"]


def _command_lines(name):
    """Command lines of one subcommand: its option strings with a value,
    valid, refused or repeated, or alone; -h and --help, proper prefixes
    and --opt=value forms; about as many positionals as it takes; all in
    any order, and zero to two "--" anywhere."""
    actions = cli._build_parser()[1][name][0]._actions
    takes = sum(not action.option_strings for action in actions)
    valued = [s for a in actions if a.option_strings and a.nargs is None
              for s in a.option_strings]
    flags = [s for a in actions if a.nargs == 0 and "-h" not in a.option_strings
             for s in a.option_strings]
    strings = [s for a in actions for s in a.option_strings]
    value = st.sampled_from(VALUES)
    prefix = st.sampled_from([s for s in strings if len(s) > 3]).flatmap(
        lambda s: st.integers(3, len(s) - 1).map(lambda k: s[:k]))
    odd = st.one_of(st.tuples(prefix), st.tuples(prefix, value),
                    st.tuples(st.sampled_from(strings)),  # -h among them
                    st.tuples(st.sampled_from(strings), value).map(
                        lambda pair: ("=".join(pair),)))
    options = st.lists(st.one_of(
        st.tuples(st.sampled_from(valued), value) if valued else st.nothing(),
        st.tuples(st.sampled_from(flags)), odd), max_size=3)
    positionals = st.sampled_from([takes] * 3 + [takes + 1, abs(takes - 1)]).flatmap(
        lambda k: st.lists(st.sampled_from(POSITIONALS).map(lambda p: (p,)),
                           min_size=k, max_size=k))
    words = st.tuples(options, positionals).flatmap(
        lambda op: st.permutations(op[0] + op[1])).map(
        lambda chunks: [w for chunk in chunks for w in chunk])
    return st.tuples(words, st.lists(st.integers(0, 8), max_size=2)).map(_with_dashes)


def _with_dashes(words_places):
    """The words with a "--" put in at each place, or at the end."""
    words, places = words_places
    for place in sorted(places, reverse=True):
        words.insert(min(place, len(words)), "--")
    return words


@pytest.mark.parametrize("name", COMMANDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_direct_reader_declines_or_matches_argparse(name, data):
    argv = data.draw(_command_lines(name))
    sub, table = cli._build_parser()[1][name]
    read = cli._read(name, argv, table)
    if read is not None:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            expected = sub.parse_args(argv, argparse.Namespace(command=name))
        assert vars(read) == vars(expected)


def test_direct_reader_takes_plain_lines():
    for argv in (["scl", "--json", "--", "trans(1)"], ["rot", "trans(t)", "--max-den", "3"],
                 ["connect", "--derived", "t", "--", "1-t"], ["eval", "--", "-"],
                 ["random", "--seed", "5", "--flavor", "Lift"], ["defect"]):
        sub, table = cli._build_parser()[1][argv[0]]
        assert cli._read(argv[0], argv[1:], table) is not None, argv


# --flavor is the one option with choices, which the draws above seldom refuse
@pytest.mark.parametrize("flavor", ["Q", "lift", "F_TAU", "", "F_tau", "T_tau", "Lift"])
def test_direct_reader_reads_a_flavor_only_where_its_choices_do(flavor):
    sub, table = cli._build_parser()[1]["random"]
    argv = ["--flavor", flavor, "--json"]
    read = cli._read("random", argv, table)
    if flavor in ("F_tau", "T_tau", "Lift"):
        expected = sub.parse_args(argv, argparse.Namespace(command="random"))
        assert vars(read) == vars(expected)
    else:
        assert read is None


# -- tree pairs -----------------------------------------------------------------

def _recursive_tree(obj):
    """A tree payload read as the recursive reader that leaf_exponents
    replaces read it, one node per split: None for a leaf, else the triple
    (left, right, wide_first).  Its error is the reader's own."""
    if obj == "leaf":
        return None
    if isinstance(obj, list) and len(obj) == 3 and obj[0] in ("s+", "s-"):
        return (_recursive_tree(obj[1]), _recursive_tree(obj[2]), obj[0] == "s+")
    raise SchemaError(f"bad subdivision tree payload: {obj!r:.40}")


def _recursive_exponents(tree, e=0):
    """The leaf exponents of a _recursive_tree, leaves from left to right."""
    if tree is None:
        return [e]
    left, right, wide_first = tree
    first, second = (1, 2) if wide_first else (2, 1)
    return _recursive_exponents(left, e + first) + _recursive_exponents(right, e + second)


def _recursive_boundaries(tree, lo, hi):
    """The partition as it was built: one split of [lo, hi] per node."""
    if tree is None:
        return [lo, hi]
    left, right, wide_first = tree
    mid = lo + (TAU if wide_first else tau_pow(2)) * (hi - lo)
    return (_recursive_boundaries(left, lo, mid)[:-1]
            + _recursive_boundaries(right, mid, hi))


trees = st.recursive(
    st.just("leaf"),
    lambda sub: st.tuples(st.sampled_from(["s+", "s-"]), sub, sub).map(list),
    max_leaves=12)
bad_nodes = st.one_of(
    st.sampled_from(["Leaf", "", "s+", None, True, 0, 3, 2.5, [], {},
                     {"p": "leaf"}, ("s+", "leaf", "leaf")]),
    st.tuples(st.sampled_from(["s*", "S+", "+", None, 1, ["s+"]]), trees, trees).map(list),
    st.lists(trees, max_size=1).map(lambda sub: ["s-", *sub]),
    st.lists(trees, min_size=3, max_size=4).map(lambda sub: ["s+", *sub]))


def _is_triple(obj) -> bool:
    """Whether obj has two subtrees to walk into, whatever its tag."""
    return isinstance(obj, list) and len(obj) == 3


def _with_node(payload, index: int, node):
    """payload with its node number index, in pre-order, replaced by node."""
    count = -1

    def walk(obj):
        nonlocal count
        count += 1
        if count == index:
            return node
        if not _is_triple(obj):
            return obj
        return [obj[0], walk(obj[1]), walk(obj[2])]

    return walk(payload)


@settings(max_examples=200, deadline=None)
@given(trees)
def test_boundaries_match_the_recursive_partition(tree):
    expected = _recursive_boundaries(_recursive_tree(tree), ZTau(0), ZTau(1))
    assert _partition(leaf_exponents(tree)) == expected


@settings(max_examples=100, deadline=None)
@given(trees, trees, st.integers(-20, 20))
def test_tree_pairs_match_the_recursive_partition(p, q, shift):
    pe, qe = leaf_exponents(p), leaf_exponents(q)
    if len(pe) != len(qe):
        return
    lcount = len(pe)
    pb = _recursive_boundaries(_recursive_tree(p), ZTau(0), ZTau(1))
    qb = _recursive_boundaries(_recursive_tree(q), ZTau(0), ZTau(1))
    s = shift % lcount
    ys = [qb[(i + s) % lcount] + (1 if i + s >= lcount else 0)
          for i in range(lcount)]
    ys.append(ys[0] + 1)
    ks = [qe[(i + s) % lcount] - pe[i] for i in range(lcount)]
    assert CircleMap.from_tree_pair(pe, qe, shift) == CircleMap(PLMap(pb, ys, ks))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-40, 40), max_size=12))
def test_partition_is_the_ring_running_sum(exponents):
    # any exponents, not just a tree's
    sums = [ZTau(0)]
    for e in exponents:
        sums.append(sums[-1] + tau_pow(e))
    assert _partition(exponents) == sums


@settings(max_examples=200, deadline=None)
@given(trees)
def test_tree_from_json_matches_leaf_and_split(tree):
    assert leaf_exponents(tree) == _recursive_exponents(_recursive_tree(tree))


def _outcome_of(read, payload):
    try:
        return read(payload)
    except TautError as exc:
        return type(exc), str(exc)


def _node_count(payload) -> int:
    if not _is_triple(payload):
        return 1
    return 1 + _node_count(payload[1]) + _node_count(payload[2])


@settings(max_examples=300, deadline=None)
@given(trees, st.lists(bad_nodes, min_size=1, max_size=2), st.data())
def test_a_tree_with_bad_nodes_fails_as_the_recursive_reader(tree, bad, data):
    # one bad node, or two, so the first in pre-order is the one named
    payload = tree
    for node in bad:
        index = data.draw(st.integers(0, _node_count(payload) - 1))
        payload = _with_node(payload, index, node)
    got = _outcome_of(leaf_exponents, payload)
    assert got == _outcome_of(lambda t: _recursive_exponents(_recursive_tree(t)), payload)
    assert got[0] is SchemaError


@pytest.mark.parametrize("payload, bad", [
    ("Leaf", "'Leaf'"),
    (None, "None"),
    (["s+", "leaf"], "['s+', 'leaf']"),
    (["s*", "leaf", "leaf"], "['s*', 'leaf', 'leaf']"),
    (["s+", "leaf", ["s-", "leaf", 3]], "3"),
    (["s-", {"p": "leaf"}, "leaf"], "{'p': 'leaf'}"),
])
def test_a_malformed_tree_keeps_its_message(payload, bad):
    with pytest.raises(SchemaError) as info:
        leaf_exponents(payload)
    assert str(info.value) == f"bad subdivision tree payload: {bad}"


# -- payloads ---------------------------------------------------------------------

def _old_ztau(obj):
    if not isinstance(obj, dict) or set(obj) - {"a", "b"}:
        raise SchemaError(f"bad ring element payload: {obj!r:.40}")
    return ZTau(json_coeff(obj.get("a", "0"), "ring coefficient"),
                json_coeff(obj.get("b", "0"), "ring coefficient"))


def _old_qtau(obj):
    if not isinstance(obj, dict) or set(obj) - {"num", "den"}:
        raise SchemaError(f"bad quotient payload: {obj!r}")
    return QTau(_old_ztau(obj.get("num", {})),
                json_coeff(obj.get("den", "1"), "quotient denominator"))


def _old_coerce_ring(v):
    if isinstance(v, ZTau):
        return v
    if isinstance(v, int):
        return ZTau(v)
    if isinstance(v, QTau):
        if v.den != 1:
            raise NotInRing(f"{v} is not in Z[tau]")
        return v.num
    raise NotInRing(f"{v!r} is not in Z[tau]")


def _old_from_raw(xs, ys, ks=None):
    from taut.errors import NotIncreasing, NotTauPower, SlopeMismatch

    def height(z):
        return abs(z.a) + 2 * abs(z.b)

    xs = [_old_coerce_ring(x) for x in xs]
    ys = [_old_coerce_ring(y) for y in ys]
    if ks is None:
        ks = []
        for i in range(len(xs) - 1):
            dx, dy = xs[i + 1] - xs[i], ys[i + 1] - ys[i]
            if dx.sign() <= 0 or dy.sign() <= 0:
                raise NotIncreasing(f"table is not strictly increasing at piece {i}")
            k = is_tau_power(QTau(dy) / QTau(dx))
            if k is None:
                raise NotTauPower(f"slope of piece {i} is no power of tau")
            ks.append(k)
    ks = [json_int(k, "slope exponent") for k in ks]
    for i, (k, x0, x1, y0, y1) in enumerate(zip(ks, xs, xs[1:], ys, ys[1:])):
        h = height(x1 - x0) * height(y1 - y0)
        if h and abs(k) > 3 * h.bit_length() // 2 + 1:
            raise SlopeMismatch(f"piece {i} does not have slope tau**{k}")
    return PLMap(xs, ys, ks)


def _old_plmap(obj):
    if not isinstance(obj, dict):
        raise SchemaError("piecewise map payload must be an object")
    unknown = set(obj) - {"xs", "ys", "ks", "kind", "schema"}
    if unknown:
        raise SchemaError(f"unknown map payload fields {sorted(unknown)}")
    try:
        xs = [_old_ztau(v) if "a" in v else _old_qtau(v) for v in obj["xs"]]
        ys = [_old_ztau(v) if "a" in v else _old_qtau(v) for v in obj["ys"]]
        ks = obj.get("ks")
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad piecewise map payload: {exc}") from exc
    if ks is not None and not isinstance(ks, list):
        raise SchemaError("slope exponents 'ks' must be a list")
    return _old_from_raw(xs, ys, ks)


def _old_circle(obj):
    if not isinstance(obj, dict):
        raise SchemaError("circle map payload must be an object")
    g = CircleMap(_old_plmap({k: v for k, v in obj.items() if k != "base"}))
    stated = obj.get("base")
    if stated is not None:
        sv = _old_ztau(stated)
        if g.v != sv - sv.floor():
            raise SchemaError("stated base value disagrees with the table")
    return g


def _old_lift(obj):
    if not isinstance(obj, dict) or "base" not in obj:
        raise SchemaError("lift payload must carry a base table")
    base = _old_circle(obj["base"])
    return LiftMap(base.table).translate(json_int(obj.get("n", 0), "lift n"))


LOADERS = [(PLMap.from_json, _old_plmap), (CircleMap.from_json, _old_circle),
           (LiftMap.from_json, _old_lift), (ZTau.from_json, _old_ztau)]


def _loaded(load, obj):
    """What load makes of obj: the table read, or the error's class and text."""
    try:
        out = load(obj)
    except (TautError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return type(exc), str(exc)
    return getattr(out, "table", out)


def _same_as_old(new, old, obj):
    assert _loaded(new, obj) == _loaded(old, obj), obj


def _element_payloads(obj):
    """Every table payload inside a JSON answer, with the loaders to read it."""
    if isinstance(obj, dict):
        if "xs" in obj:
            yield obj, "base" in obj or obj.get("kind") == "circle"
        elif isinstance(obj.get("base"), dict) and "n" in obj:
            yield obj, None
        for v in obj.values():
            yield from _element_payloads(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _element_payloads(v)


def _check_answers(texts):
    seen = {"plmap": 0, "circle": 0, "lift": 0}
    for text in texts:
        for obj, is_circle in _element_payloads(json.loads(text)):
            if is_circle is None:
                _same_as_old(LiftMap.from_json, _old_lift, obj)
                seen["lift"] += 1
            elif is_circle:
                _same_as_old(CircleMap.from_json, _old_circle, obj)
                # the same table moved into another period, as a lift
                for n in (0, -3, 2):
                    _same_as_old(LiftMap.from_json, _old_lift,
                                 {"base": obj, "n": n})
                seen["circle"] += 1
            else:
                _same_as_old(PLMap.from_json, _old_plmap, obj)
                seen["plmap"] += 1
    return seen


def test_loaders_match_the_old_route_on_golden_answers():
    records = json.loads((Path(__file__).with_name("golden_cli.json")).read_text())
    texts = [r["stdout"] for r in records
             if r["exit"] == 0 and r["stdout"].startswith("{")]
    seen = _check_answers(texts)
    assert all(seen.values()), seen


@pytest.mark.parametrize("workload", ["rot-queries", "enclosure-replay",
                                      "certificates"])
def test_loaders_match_the_old_route_on_benchmark_payloads(workload):
    sys.path.insert(0, str(BENCH))
    try:
        import run
        from workloads import round_ops
    finally:
        sys.path.remove(str(BENCH))
    texts = []
    for op in round_ops(workload, 1, 0, run.taut_modules()):
        rc, text = op.answer()
        assert rc == 0
        texts.append(text)
    assert sum(_check_answers(texts).values()) > 0


@pytest.mark.parametrize("ys", [[0], [0, 1, 2], [1, 0, 2], [0, 2, 3], [0, 1, 2, 3]])
def test_table_without_slopes_and_uneven_lengths_fails_as_a_table(
        ys, tmp_path, capsys):
    # exponents are stated, never inferred: whatever its ys, a table
    # without "ks" is a schema error, before any slope is looked at
    obj = {"kind": "plmap", "xs": [{"a": "0"}, {"a": "1"}],
           "ys": [{"a": str(y)} for y in ys]}
    path = tmp_path / "map.json"
    path.write_text(json.dumps(obj))
    rc = cli.main(["check", str(path)])
    assert rc == 1 and capsys.readouterr().err == (
        "error (SchemaError): bad piecewise map payload: 'ks'\n")


def _one_piece(x1, y1, k):
    return {"xs": [{"a": "0"}, x1], "ys": [{"a": "0"}, y1], "ks": [k]}


HOSTILE_COEFFICIENTS = ["+5", "05", " 5", "5 ", "5_0", "٥", "-0", "",
                        "9" * 5000, 5.0, True, None, [5], {"a": "5"}, 5, -7]


@pytest.mark.parametrize("value", HOSTILE_COEFFICIENTS, ids=repr)
def test_hostile_coefficients_fail_as_before(value):
    for obj in ({"a": value}, {"b": value}, {"a": "1", "b": value},
                {"a": value, "b": "x"}):
        _same_as_old(ZTau.from_json, _old_ztau, obj)
        if "a" not in obj:
            continue  # the old table reader took it for a quotient
        table = _one_piece({"a": "1"}, {"a": "1"}, 0)
        table["ys"][1] = obj
        _same_as_old(PLMap.from_json, _old_plmap, table)


@pytest.mark.parametrize("value", HOSTILE_COEFFICIENTS, ids=repr)
def test_a_breakpoint_without_a_is_a_ring_element(value):
    # as {"a": "0", "b": value} was read, where the old reader took
    # {"b": value} for a quotient
    for place in ("xs", "ys"):
        table = _one_piece({"a": "1"}, {"a": "1"}, 0)
        table[place][1] = {"b": value}
        written = _one_piece({"a": "1"}, {"a": "1"}, 0)
        written[place][1] = {"a": "0", "b": value}
        assert _loaded(PLMap.from_json, table) == _loaded(_old_plmap, written)


def test_json_integers_are_still_ring_coefficients():
    assert ZTau.from_json({"a": 5, "b": "-2"}) == ZTau(5, -2)
    assert ZTau.from_json({"b": -7}) == ZTau(0, -7)


@pytest.mark.parametrize("obj", [
    {"a": "1", "c": "2"}, {"num": "1"}, [], "1", None,
    {"a": "1", "b": "2", "kind": "ring"},
], ids=repr)
def test_extra_keys_fail_as_before(obj):
    _same_as_old(ZTau.from_json, _old_ztau, obj)


@pytest.mark.parametrize("k", [3, -3, 4, -4, 5, 2, -2, True, "3", 3.0, 10**40])
@pytest.mark.parametrize("rise", [
    {"a": "1"},             # height 1: |k| <= 2 only
    {"a": "2"}, {"a": "3"},  # height 2 and 3: |k| <= 4
    {"a": "-1", "b": "2"},  # tau**3 itself
    {"a": "2", "b": "-1"},  # tau**-3
    {"a": "0"},             # no rise: refused as not increasing
])
def test_slope_bound_edge_fails_as_before(rise, k):
    # the piece from (0, 0) to (1, rise), and to (rise, 1)
    for x1, y1 in (({"a": "1"}, rise), (rise, {"a": "1"})):
        _same_as_old(PLMap.from_json, _old_plmap, _one_piece(x1, y1, k))


@pytest.mark.parametrize("obj", [
    {"base": {"xs": [{"a": "0"}, {"a": "1"}], "ys": [{"a": "3", "b": "1"},
                                                    {"a": "4", "b": "1"}],
              "ks": [0], "base": {"a": "0", "b": "1"}}, "n": "2"},
    {"base": {"xs": [{"a": "0"}, {"a": "1"}], "ys": [{"a": "0"}, {"a": "2"}],
              "ks": [0]}, "n": True},
    {"base": {"xs": [{"a": "0"}, {"a": "2"}], "ys": [{"a": "0"}, {"a": "2"}],
              "ks": [0]}, "n": 1},
    {"base": {"xs": [{"a": "0"}, {"a": "1"}], "ys": [{"a": "0", "b": "1"},
                                                    {"a": "1", "b": "1"}],
              "ks": [0], "base": {"a": "1"}}, "n": None},
    {"base": {"xs": [{"a": "0"}, {"a": "1"}], "ys": [{"a": "5", "b": "1"},
                                                    {"a": "6", "b": "1"}],
              "ks": [0], "base": {"a": "-2", "b": "1"}}, "n": -4},
    {"base": {"xs": [{"a": "0"}, {"a": "1"}], "ys": [], "ks": [0]}, "n": 1},
    {"base": [], "n": 0}, {"n": 0}, [],
], ids=[*range(6), *range(7, 10)])  # case 6, a quotient, is refused below
def test_lift_payload_faults_fail_as_before(obj):
    _same_as_old(LiftMap.from_json, _old_lift, obj)
    if isinstance(obj, dict) and "base" in obj:
        _same_as_old(CircleMap.from_json, _old_circle, obj["base"])


def _connect_payload(x1):
    """The F_tau element through (tau, tau**2), of slopes tau and 1/tau,
    with x1 written for its breakpoint tau."""
    return {"xs": [{"a": "0"}, x1, {"a": "1"}],
            "ys": [{"a": "0"}, {"a": "1", "b": "-1"}, {"a": "1"}], "ks": [1, -1]}


def _read_everywhere(table, tmp_path):
    """The outcomes of eval map, as an interval and as a circle payload,
    and of taut check on a plmap, a circle and a lift file of table."""
    circle = dict(table, kind="circle")
    outcomes = [_outcome(cli.main, ["eval", "map " + json.dumps(obj)])
                for obj in (table, circle)]
    for obj in (dict(table, kind="plmap"), circle,
                {"kind": "lift", "base": table, "n": 0}):
        path = tmp_path / "map.json"
        path.write_text(json.dumps(obj))
        outcomes.append(_outcome(cli.main, ["check", str(path)]))
    return outcomes


def test_a_breakpoint_of_b_alone_reads_as_tau(tmp_path):
    table = _connect_payload({"b": "1"})
    assert PLMap.from_json(table) == PLMap(
        [ZTau(0), TAU, ZTau(1)], [ZTau(0), tau_pow(2), ZTau(1)], [1, -1])
    written = _read_everywhere(_connect_payload({"a": "0", "b": "1"}), tmp_path)
    assert _read_everywhere(table, tmp_path) == written
    assert [code for code, _, _ in written] == [0] * 5


@pytest.mark.parametrize("x1, message", [
    (None, "bad ring element payload: None"),
    ([1], "bad ring element payload: [1]"),
    ({"num": {"a": "2"}, "den": 2},
     "bad ring element payload: {'num': {'a': '2'}, 'den': 2}"),
    ({"num": {"a": "1"}, "den": 0},
     "bad ring element payload: {'num': {'a': '1'}, 'den': 0}"),
    ("no ks", "bad piecewise map payload: 'ks'"),
], ids=["null", "list", "quotient", "zero-den", "no-ks"])
def test_quotients_and_tables_without_ks_are_schema_errors(x1, message, tmp_path):
    # a quotient breakpoint, even one in the ring, and a table without
    # its exponents were read once; null was refused with a TypeError's
    # text, [1] as a quotient, and a zero denominator ended in
    # ZeroDivisionError
    if x1 == "no ks":
        table = _connect_payload({"b": "1"})
        del table["ks"]
    else:
        table = _connect_payload(x1)
    outcomes = _read_everywhere(table, tmp_path)
    for code, out, err in outcomes[:2]:
        assert code == 1 and out == ""
        assert err.startswith(f"error (ExprSyntaxError): {message} (line 1, column ")
    assert outcomes[2:] == [(1, "", f"error (SchemaError): {message}\n")] * 3


# -- expression text ---------------------------------------------------------------

ONE_PIECE_MAP = ('map {"xs": [{"a": "0"}, {"a": "1"}], '
                 '"ys": [{"a": "0"}, {"a": "1"}], "ks": [0]}')


def test_inline_json_nesting_is_checked_once_per_value(monkeypatch):
    text = " * ".join([ONE_PIECE_MAP] * 900)
    scanned = []
    check = expr._check_json_nesting
    monkeypatch.setattr(expr, "_check_json_nesting",
                        lambda t: (scanned.append(len(t)), check(t))[1])
    assert evaluate_str(text).is_identity()
    assert len(scanned) == 900 and sum(scanned) <= 2 * len(text)


@pytest.mark.parametrize("text, message", [
    ("map " + "[" * 200 + "]" * 200, "JSON nests deeper than 100 levels"),
    ("map " + "[" * 200, "JSON nests deeper than 100 levels"),
    ("map [" + "[" * 5000, "JSON nests deeper than 100 levels"),
    ("map " + "[" * 50, "bad inline JSON: Expecting value"),
    ("map [1 * map " + "[" * 200, "JSON nests deeper than 100 levels"),
])
def test_deep_inline_json_is_reported_as_before(text, message):
    with pytest.raises(TautError) as info:
        evaluate_str(text)
    assert str(info.value) == f"{message} (line 1, column 5)"


HYPERBOLIC = ('lift(treepair {"p": ["s+", ["s-", "leaf", "leaf"], "leaf"], '
              '"q": ["s+", "leaf", ["s+", "leaf", "leaf"]], "shift": 0}, 0)')


def test_long_product_chain_is_bounded_by_its_work():
    start = time.perf_counter()
    code, out, err = _outcome(cli.main, ["eval", " * ".join([HYPERBOLIC] * 600)])
    assert time.perf_counter() - start < 5
    assert code == 2 and out == "" and err.count("\n") == 1
    assert "PowerBudgetExceeded" in err and str(MAX_POWER_WORK) in err


# as the reader that probed each keyword in turn reported them
READ_ERRORS = [
    ("let = rot(t); x", "ExprSyntaxError", "expected a name (line 1, column 5)"),
    ("let t = rot(t); t", "ExprSyntaxError",
     "'t' is reserved (line 1, column 6)"),
    ("rot(t) * let", "ExprSyntaxError",
     "'let' cannot be used as a name here (line 1, column 13)"),
    ("lift(t, 0)", "ExprSyntaxError",
     "'t' cannot be used as a name here (line 1, column 7)"),
    ("comm(rot(t) rot(t))", "ExprSyntaxError", "expected ',' (line 1, column 13)"),
    ("map [1, 2", "ExprSyntaxError",
     "bad inline JSON: Expecting ',' delimiter (line 1, column 5)"),
    ("treepair [1]", "ExprSyntaxError",
     "treepair payload needs 'p' and 'q' (line 1, column 10)"),
    ("(rot(t)", "ExprSyntaxError", "expected ')' (line 1, column 8)"),
    ("rot (t) * ", "ExprSyntaxError", "expected a name (line 1, column 11)"),
    ("  ", "ExprSyntaxError", "expected a name (line 1, column 3)"),
    ("rot_x(t)", "ExprTypeError", "unbound name 'rot_x'"),
    ("rotx", "ExprTypeError", "unbound name 'rotx'"),
    ("trans(t) ^ x", "ExprSyntaxError", "expected an integer (line 1, column 12)"),
    ("let x = rot(t) x", "ExprSyntaxError", "expected ';' (line 1, column 16)"),
    ('map{"xs": 1}', "ExprSyntaxError", "bad piecewise map payload: 'int' object "
     "is not iterable (line 1, column 4)"),
    ("rot(t)*lift", "ExprSyntaxError", "expected '(' (line 1, column 12)"),
    ("conj (rot(t), map [)", "ExprSyntaxError",
     "bad inline JSON: Expecting value (line 1, column 19)"),
    ("\u00e9t * rot(t)", "ExprTypeError", "unbound name '\u00e9t'"),
    ("let\tx = rot(t);\n x * y", "ExprTypeError", "unbound name 'y'"),
]


@pytest.mark.parametrize("text, kind, message", READ_ERRORS)
def test_read_errors_keep_their_class_and_column(text, kind, message):
    with pytest.raises(TautError) as info:
        evaluate_str(text)
    assert (type(info.value).__name__, str(info.value)) == (kind, message)
