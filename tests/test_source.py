"""Design rules of the package source that no behavioural test can see."""

import ast
import types
from pathlib import Path

import pytest

import flmarket
import flmarket.auction

SOURCES = sorted(Path(flmarket.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    local = [
        f"{path.name}:{node.lineno} in {scope.name}()"
        for scope in ast.walk(tree)
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(scope)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert local == [], "imports belong at module level: " + ", ".join(local)


def _scopes_where(tree, hit):
    """Dotted scope ("Class.method", "<module>") of every node for which
    `hit(node)` holds."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if scope == "<module>" else f"{scope}.{child.name}")
                continue
            if hit(child):
                found.append(scope)
            visit(child, scope)

    visit(tree, "<module>")
    return found


def _module_uses_by_scope(tree, module):
    """Scope of every use of `module`: each load of its name, and each
    import that binds it under another name (`from module import x`,
    `import module as m`)."""

    def uses(node):
        if isinstance(node, ast.Name):
            return node.id == module
        if isinstance(node, ast.ImportFrom):
            return node.module == module
        return isinstance(node, ast.Import) and any(
            alias.name == module and alias.asname for alias in node.names
        )

    return _scopes_where(tree, uses)


def test_package_init_imports_no_submodule():
    # Callers import the submodule they use, so the package re-exports no
    # name and importing it loads none of the simulator.
    init = Path(flmarket.__file__)
    imports = [
        f"__init__.py:{node.lineno}"
        for node in ast.walk(ast.parse(init.read_text(), filename=str(init)))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "flmarket")
        or isinstance(node, ast.Import)
        and any(alias.name.split(".")[0] == "flmarket" for alias in node.names)
    ]
    assert imports == [], "flmarket/__init__.py imports its submodules: " + ", ".join(imports)


LEDGER = Path(flmarket.__file__).parent / "ledger.py"


def test_ledger_hashes_only_in_compute_hash():
    # One digest path keeps every hash a read, append or verify makes
    # visible to anything that wraps ReputationRecord.compute_hash.
    uses = _module_uses_by_scope(ast.parse(LEDGER.read_text(), filename=str(LEDGER)), "hashlib")
    assert uses and set(uses) == {"ReputationRecord.compute_hash"}, (
        f"hashlib used outside ReputationRecord.compute_hash: {uses}"
    )


def test_ledger_checks_integrity_in_one_predicate():
    # Only an append and the one integrity check digest a record, so
    # verify and every read judge records by the same rule.
    calls = _scopes_where(
        ast.parse(LEDGER.read_text(), filename=str(LEDGER)),
        lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "compute_hash",
    )
    assert sorted(calls) == ["HashChainLedger._sound", "HashChainLedger.append"], (
        f"compute_hash called outside append and the integrity check: {calls}"
    )


AUCTION = Path(flmarket.__file__).parent / "auction.py"
FLSIM = Path(flmarket.__file__).parent / "flsim.py"


def test_auction_prices_in_one_offer():
    # run_round and the re-pricing of a shared trajectory take contracts and
    # client utilities from one helper, so their pricing cannot drift apart.
    calls = _scopes_where(
        ast.parse(AUCTION.read_text(), filename=str(AUCTION)),
        lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"solve", "client_utility"},
    )
    assert calls and set(calls) == {"_offer"}, (
        f"solve or client_utility called outside auction._offer: {calls}"
    )


def _mechanism_table(tree):
    """The dict literal assigned to `MECHANISMS` in auction.py."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "MECHANISMS" for t in targets):
                assert isinstance(node.value, ast.Dict)
                return node.value
    raise AssertionError("auction.py assigns no MECHANISMS dict literal")


def test_mechanism_names_are_spelled_only_in_the_table():
    # Every branch on a mechanism goes through its row of the table, so a
    # new mechanism is one new row and no name is matched anywhere else.
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    table = _mechanism_table(trees[AUCTION])
    names = {key.value for key in table.keys}
    assert names == set(flmarket.auction.MECHANISMS)
    keys = {id(key) for key in table.keys}
    spelled = [
        f"{path.name}:{node.lineno} {node.value!r}"
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in names and id(node) not in keys
    ]
    assert spelled == [], "mechanism names outside auction.MECHANISMS: " + ", ".join(spelled)



def _callee(node):
    """The name `f` that a call `f(...)` or `m.f(...)` calls, else None."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", None) or getattr(node.func, "attr", None)
    return None


def test_only_small_rounds_enumerate_coalitions():
    # A round above auction.EXACT_COALITION_LIMIT scores by the additive
    # game's closed form, so the Monte Carlo estimator has no caller and
    # exact enumeration has one, for the rounds at or below the limit.
    calls = {
        name: [
            f"{path.stem}.{scope}"
            for path in SOURCES
            for scope in _scopes_where(
                ast.parse(path.read_text(), filename=str(path)),
                lambda node: _callee(node) == name,
            )
        ]
        for name in ("banzhaf_exact", "banzhaf_mc")
    }
    assert calls == {"banzhaf_exact": ["auction._banzhaf_contributions"], "banzhaf_mc": []}


def test_each_cell_plays_through_one_path():
    # A seed's contracts are solved once (`_offers`) and its tree is made
    # once (`run_tables`), and every `ours-*` round is played by `_play`, so
    # no cell has a second way to price, train or play.
    tree = ast.parse(AUCTION.read_text(), filename=str(AUCTION))
    callers = {
        name: _scopes_where(tree, lambda node, name=name: _callee(node) == name)
        for name in ("_offer", "_model_tree", "run_round")
    }
    assert callers == {"_offer": ["_offers"], "_model_tree": ["run_tables"], "run_round": ["_play"]}


def test_only_the_offers_name_a_regime():
    # Only `solve` reads a market's regime, so rounds are played, bid and
    # priced in the default market, and only `_offers` builds one under a
    # named regime.
    tree = ast.parse(AUCTION.read_text(), filename=str(AUCTION))
    calls = _scopes_where(
        tree,
        lambda node: _callee(node) == "_market" and (len(node.args) > 2 or bool(node.keywords)),
    )
    assert calls == ["_offers"]


def _auction_functions():
    """auction.py's module-level functions by name."""
    tree = ast.parse(AUCTION.read_text(), filename=str(AUCTION))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_the_play_path_takes_no_population_or_market():
    # A round reads its population from its tree and only k of a market, so
    # neither a second population nor another lambda and delta than the
    # tree scored under can reach it.
    functions = _auction_functions()
    annotated = sorted(
        f"{name}({arg.arg}: {ast.unparse(arg.annotation)})"
        for name in ("run_round", "_child", "_play")
        for arg in (*functions[name].args.posonlyargs, *functions[name].args.args,
                    *functions[name].args.kwonlyargs)
        if arg.annotation is not None
        and {"Population", "MarketParams"}
        & {node.id for node in ast.walk(arg.annotation) if isinstance(node, ast.Name)}
    )
    assert annotated == [], f"play-path parameters of a population or market: {annotated}"


def _reached(functions, root):
    """The names of `root` and of every function in `functions` it reaches
    by calling a name."""
    reached, todo = set(), [root]
    while todo:
        name = todo.pop()
        reached.add(name)
        todo.extend(
            callee for node in ast.walk(functions[name])
            if (callee := _callee(node)) in functions and callee not in reached
        )
    return reached


def _flsim_functions():
    """flsim.py's module-level functions and methods, by dotted name."""
    tree = ast.parse(FLSIM.read_text(), filename=str(FLSIM))
    functions = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            functions.update(
                (f"{node.name}.{child.name}", child)
                for child in node.body if isinstance(child, ast.FunctionDef)
            )
    return functions


def test_rounds_do_no_per_cell_work():
    # A cell's offer and a poisoner's flipped labels are fixed for the whole
    # cell, so run_round, every auction function it reaches, and the
    # training it calls neither price the population nor draw random
    # numbers: both happen once per cell or per population, before the
    # rounds. Nor does a round price itself: it is played once and priced by
    # each mechanism after.
    functions = _auction_functions()
    reached = _reached(functions, "run_round")
    training = _flsim_functions()
    walked = {name: functions[name] for name in reached} | {
        name: training[name] for name in ("local_train", "Population.round_labels")
    }
    calls = sorted(
        f"{name} calls {callee}"
        for name, function in walked.items()
        for node in ast.walk(function)
        if (callee := _callee(node))
        in {"_offer", "poison", "default_rng", "packbits", "_server_utility",
            "server_utility_per_client", "client_utility"}
    )
    assert "_child" in reached
    assert calls == [], f"per-round fixed work: {calls}"
    # The walk reaches the training: _child calls local_train, which reads
    # the round's labels.
    assert any(_callee(node) == "local_train" for node in ast.walk(functions["_child"]))
    assert any(
        _callee(node) == "round_labels" for node in ast.walk(training["local_train"])
    )


def test_only_the_population_packs_its_flips():
    # Population.with_poisoners packs a poisoner's flipped labels and
    # Population.round_labels unpacks them, so the bit layout of `flips`
    # has one owner.
    calls = sorted(
        f"{path.stem}.{scope} calls {name}"
        for path in SOURCES
        for name in ("packbits", "unpackbits")
        for scope in _scopes_where(
            ast.parse(path.read_text(), filename=str(path)),
            lambda node, name=name: _callee(node) == name,
        )
    )
    assert calls == [
        "flsim.Population.round_labels calls unpackbits",
        "flsim.Population.with_poisoners calls packbits",
    ]


def test_rounds_are_priced_in_one_place():
    # Every price has one shape, the server's payoff from each client, made
    # by auction._payoffs alone; every rounds.csv row (auction._rows) and
    # every tamper total sums the selected clients' payoffs through
    # auction._server_utility, so no two mechanisms can price or sum
    # differently.
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    calls = {
        name: sorted(
            f"{path.stem}.{scope}"
            for path, tree in trees.items()
            for scope in _scopes_where(tree, lambda node, name=name: _callee(node) == name)
        )
        for name in ("server_utility_per_client", "_server_utility", "_rows")
    }
    assert calls == {
        "server_utility_per_client": ["auction._payoffs"],
        "_server_utility": ["auction._rows", "auction._tamper_totals"],
        "_rows": ["auction._ours_cells", "auction.run_cell"],
    }
    # Only _rows writes a row's server utility.
    writers = [
        f"{path.stem}.{scope}"
        for path, tree in trees.items()
        for scope in _scopes_where(
            tree,
            lambda node: isinstance(node, ast.Dict) and any(
                isinstance(key, ast.Constant) and key.value == "server_utility"
                for key in node.keys
            ),
        )
    ]
    assert writers == ["auction._rows"]


def test_cells_draw_and_price_nothing():
    # A seed's prices (auction._prices) read no k: the `ours-*` payoffs and
    # the baselines' bid book, every round's bids and their payoffs, are made
    # once per seed. So a cell, and every auction function it reaches by
    # name, draws no bid, costs no output and builds no market. A baseline
    # cell only applies its winner rule, and reaches the rule's own draw
    # (`_uniform`'s) through the `rule` variable, not by name.
    functions = _auction_functions()
    calls = sorted(
        f"{root} reaches {name}, which calls {callee}"
        for root in ("run_cell", "_ours_cells", "_tamper_totals")
        for name in _reached(functions, root)
        for node in ast.walk(functions[name])
        if (callee := _callee(node)) in {"default_rng", "cost", "_market", "MarketParams"}
    )
    assert calls == [], f"per-cell pricing work: {calls}"
    assert not _reached(functions, "run_cell") & {"_cheapest", "_uniform"}
    assert any(_callee(node) == "rule" for node in ast.walk(functions["run_cell"]))


# The tables auction.py names at module level; every other module-level
# name it binds holds an immutable value.
AUCTION_TABLES = {"MECHANISMS", "COLUMNS", "TRUST_POLICIES"}


def _immutable(value):
    if isinstance(value, tuple):
        return all(map(_immutable, value))
    return isinstance(value, (int, float, str, bytes, frozenset, type(None), types.GenericAlias))


def test_auction_keeps_no_module_level_state():
    # Work shared between cells lives in objects the harness makes and
    # frees per seed (a population, its ModelTree). A module-level container
    # would outlive them and leak between runs in one process, and an id()
    # key would outlive the object it named.
    tree = ast.parse(AUCTION.read_text(), filename=str(AUCTION))
    bound = [
        name.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for name in ast.walk(target)
        if isinstance(name, ast.Name)
    ]
    assert AUCTION_TABLES <= set(bound)
    mutable = [
        name for name in bound
        if name not in AUCTION_TABLES and not _immutable(getattr(flmarket.auction, name))
    ]
    assert mutable == [], f"auction.py binds module-level mutable values: {mutable}"
    rebinding = [
        f"auction.py:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Global)
    ]
    assert rebinding == [], "auction.py rebinds module-level names: " + ", ".join(rebinding)
    ids = [
        f"auction.{scope}"
        for scope in _scopes_where(
            tree, lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", None) == "id"
        )
    ]
    assert ids == [], f"auction.py calls id(): {ids}"
