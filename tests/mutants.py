"""The mutation gate: plant one fault at a time in a copy of the package
and require the tests named for it to fail.

    python tests/mutants.py

Each row of `MUTANTS` is (name, file, exact old text, new text, targets).
A target is a test file or a test node id.  The gate copies `src/` and
`tests/` into one temporary root, since a test starts subprocesses on
the `src` beside its own directory, and runs pytest there with no
bytecode written, a fixed hypothesis seed and no shrinking (the gate
needs a failing example, not the smallest one):

- the unmutated copy must pass every target of every row, in one run;
- for each row, the old text must occur exactly once in its file, so a
  refactor that changes a mutated line must update its row; the gate
  writes the new text, runs each target on its own and restores the
  file;
- a target kills the mutant when pytest reports a failed test (exit 1);
- every pytest run, the unmutated one too, has `TIMEOUT` seconds; one
  that runs past it is stopped, prints TIMEOUT and fails the gate, so a
  mutant that makes a test hang is not a kill and cannot hold a CI
  runner.

The gate exits 0 when every target kills its mutant, and 1 otherwise.
It needs pytest and hypothesis, and numpy for the rows on
`_vectorized.py` and the numpy tests.  Too slow for the tier-1 suite, so
pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# seconds for one pytest run; the unmutated run of every target takes
# well under a minute, and the whole tier-1 suite about half of one
TIMEOUT = 300

# a pytest plugin, written into the copy, that registers the gate's
# hypothesis profile
PROFILE = """from hypothesis import Phase, settings

settings.register_profile("gate", phases=[Phase.explicit, Phase.reuse, Phase.generate])
"""

MUTANTS = [
    (
        "Layer.mutable ignores the bias flags",
        "src/nncat/network.py",
        "for f in row + (b,))",
        "for f in row + (True,))",
        ["tests/test_backward.py", "tests/test_network.py"],
    ),
    (
        "Layer's mask-shape check off",
        "src/nncat/network.py",
        "if len(mask) != k or any(len(r) != n for r in mask):",
        "if False:",
        ["tests/test_fileio.py", "tests/test_network.py"],
    ),
    (
        "the parser's bool check on mask entries off",
        "src/nncat/fileio.py",
        "all(map(_bools, mask))",
        "all(isinstance(row, list) for row in mask)",
        ["tests/test_fileio.py"],
    ),
    (
        "a parse error loses its layer prefix",
        "src/nncat/fileio.py",
        'raise FileFormatError(f"layer {pos}: {exc}") from None',
        "raise",
        ["tests/test_fileio.py", "tests/test_cli.py"],
    ),
    (
        "_finite_number accepts a boolean",
        "src/nncat/fileio.py",
        "if isinstance(value, bool) or not isinstance(value, (int, float)):",
        "if not isinstance(value, (int, float)):",
        ["tests/test_fileio.py"],
    ),
    (
        "the parser's bias_mutable check off",
        "src/nncat/fileio.py",
        "flags is None or _bools(flags)",
        "True",
        ["tests/test_fileio.py"],
    ),
    (
        # the width check moved out of the try that adds "path:line: "
        "a dataset width error loses its path and line",
        "src/nncat/fileio.py",
        "            if len(values) != width:\n"
        "                raise FileFormatError(\n"
        '                    f"expected {width} values ({in_dim} inputs + {out_dim} targets), "\n'
        '                    f"got {len(values)}"\n'
        "                )\n"
        "        except FileFormatError as exc:\n"
        '            raise FileFormatError(f"{path}:{lineno}: {exc}") from None\n',
        "        except FileFormatError as exc:\n"
        '            raise FileFormatError(f"{path}:{lineno}: {exc}") from None\n'
        "        if len(values) != width:\n"
        "            raise FileFormatError(\n"
        '                f"expected {width} values ({in_dim} inputs + {out_dim} targets), "\n'
        '                f"got {len(values)}"\n'
        "            )\n",
        ["tests/test_fileio.py"],
    ),
    (
        "random_layer draws masks at density 1.0",
        "src/nncat/randnet.py",
        "if mask_density >= 1.0:",
        "if mask_density > 1.0:",
        ["tests/test_cli.py", "tests/test_network.py"],
    ),
    (
        "ArrayWeights.of without the negation",
        "src/nncat/_vectorized.py",
        "frozen = ~np.frombuffer(",
        "frozen = np.frombuffer(",
        ["tests/test_vectorized.py"],
    ),
    (
        "the numpy pushback summed in descending j",
        "src/nncat/_vectorized.py",
        "for row in products:",
        "for row in products[::-1]:",
        [
            "tests/test_vectorized.py",
            "tests/test_vectorized.py::test_compositionality_is_bitwise_across_kernel_kinds",
        ],
    ),
    (
        "the pure pushback summed in descending j",
        "src/nncat/algebra.py",
        "for sj, w in zip(s, entries[i::cols]):",
        "for sj, w in reversed(list(zip(s, entries[i::cols]))):",
        ["tests/test_vectorized.py", "tests/test_differential.py"],
    ),
    (
        "the pure update ignores the mask",
        "src/nncat/algebra.py",
        "w - sj * ai if f else w",
        "w - sj * ai",
        ["tests/test_backprop.py", "tests/test_vectorized.py"],
    ),
    (
        "the step skips layer 0",
        "src/nncat/backprop.py",
        "for idx in range(len(weights) - 1, -1, -1):",
        "for idx in range(len(weights) - 1, 0, -1):",
        ["tests/test_backprop.py"],
    ),
    (
        "the sigmoid shortcut regrouped",
        "src/nncat/backward.py",
        "(e * v) * (1.0 - v)",
        "e * (v * (1.0 - v))",
        ["tests/test_backprop.py"],
    ),
    (
        "WIDE_SIDE = 16",
        "src/nncat/network.py",
        "WIDE_SIDE = 17",
        "WIDE_SIDE = 16",
        ["tests/test_numpy_optional.py"],
    ),
    (
        "a shape or overflow error names no network file",
        "src/nncat/cli.py",
        "if path is None:",
        "if True:",
        ["tests/test_cli.py"],
    ),
    (
        "a bad state literal names no option",
        "src/nncat/cli.py",
        'raise FileFormatError(f"--{option}: {exc}") from None',
        "raise",
        ["tests/test_cli.py"],
    ),
    (
        "cli.main catches only OSError",
        "src/nncat/cli.py",
        "except (OSError, ValueError) as exc:",
        "except OSError as exc:",
        ["tests/test_cli.py"],
    ),
    (
        "make_layer's row/bias count check off",
        "src/nncat/network.py",
        "if len(weights) != len(bias):",
        "if False:",
        ["tests/test_fileio.py", "tests/test_network.py"],
    ),
    (
        "make_layer reports ragged rows with the bias column",
        "src/nncat/network.py",
        "Mat.from_rows(weights)\n",
        "pass\n",
        ["tests/test_fileio.py", "tests/test_network.py"],
    ),
    (
        "make_layer's in_dim check off",
        "src/nncat/network.py",
        "if in_dim not in (None, transition.cols - 1):",
        "if False:",
        ["tests/test_network.py"],
    ),
    (
        "Network's negative-width check off",
        "src/nncat/network.py",
        "if self.in_dim < 0 or self.out_dim < 0:",
        "if False:",
        ["tests/test_network.py"],
    ),
    (
        "W @ x in the numpy affine kernel",
        "src/nncat/_vectorized.py",
        "acc = np.zeros(len(w))\n"
        "            for column in products.T:\n"
        "                acc += column\n",
        "acc = w[:, :-1] @ np.asarray(x, dtype=float)\n",
        ["tests/test_vectorized.py"],
    ),
    (
        # an eager `from . import _vectorized` here would be a circular
        # import, which fails every target for another reason
        "network imports numpy eagerly",
        "src/nncat/network.py",
        "from functools import cache, cached_property\n",
        "from functools import cache, cached_property\nimport numpy\n",
        ["tests/test_numpy_optional.py"],
    ),
    (
        # every layer is wide, so small nets import numpy
        "the cached kernel choice ignores WIDE_SIDE",
        "src/nncat/network.py",
        "if min(t.rows, t.cols) >= WIDE_SIDE and (arrays := _array_weights()):",
        "if (arrays := _array_weights()):",
        [
            "tests/test_vectorized.py::test_widths_on_both_sides_of_the_constant",
            "tests/test_numpy_optional.py::test_small_nets_never_import_numpy",
        ],
    ),
    (
        "ArrayWeights leaves its arrays writable",
        "src/nncat/_vectorized.py",
        "array.flags.writeable = frozen.flags.writeable = False",
        "pass",
        ["tests/test_vectorized.py"],
    ),
    (
        # the choice is made afresh on every call, so every use reloads
        "_loaded ignores what the layer carries",
        "src/nncat/network.py",
        "return [layer._step_weights for layer in net.layers]",
        "return [Layer._step_weights.func(layer) for layer in net.layers]",
        [
            "tests/test_vectorized.py::test_a_chain_of_carried_steps_equals_the_pure_chain",
            "tests/test_vectorized.py::test_a_parsed_wide_net_loads_each_layer_once",
        ],
    ),
    (
        # each stepped layer chooses and loads again at its first use
        "_with_weights carries nothing",
        "src/nncat/network.py",
        "vars(new).update(vars(layer), transition=t, _step_weights=w)",
        "vars(new).update(vars(layer), transition=t)\n"
        '            vars(new).pop("_step_weights", None)',
        [
            "tests/test_vectorized.py::test_a_chain_of_carried_steps_equals_the_pure_chain",
            "tests/test_vectorized.py::test_a_layer_keeps_the_kind_of_its_first_use",
        ],
    ),
    (
        # the copy keeps the parent's step weights, which the step loaded
        "a new layer is seeded with its parent's weights",
        "src/nncat/network.py",
        "transition=t, _step_weights=w)",
        "transition=t)",
        ["tests/test_vectorized.py::test_a_chain_of_carried_steps_equals_the_pure_chain"],
    ),
    (
        # the stepped layer runs on the new weights but stores and
        # serializes the old entries
        "the copied Mat keeps its parent's entries",
        "src/nncat/network.py",
        "vars(t).update(vars(layer.transition), entries=w.entries())",
        "vars(t).update(vars(layer.transition))",
        [
            "tests/test_backprop.py",
            "tests/test_network.py::test_the_unchecked_copy_equals_the_checked_construction",
        ],
    ),
    (
        "the copied network keeps its parent's layers",
        "src/nncat/network.py",
        "vars(net).update(vars(self), layers=tuple(layers))",
        "vars(net).update(vars(self))",
        [
            "tests/test_backprop.py",
            "tests/test_network.py::test_the_unchecked_copy_equals_the_checked_construction",
        ],
    ),
    (
        # a list input reaches `+ (1.0,)` as a list
        "_forward keeps a list input as it is",
        "src/nncat/network.py",
        "states, pre_activations = [tuple(x)], []",
        "states, pre_activations = [x], []",
        ["tests/test_backprop.py::test_a_list_input_gives_the_bits_of_its_tuple_twin"],
    ),
    (
        "Mat keeps a list",
        "src/nncat/algebra.py",
        'object.__setattr__(self, "entries", tuple(self.entries))',
        'object.__setattr__(self, "entries", self.entries)',
        ["tests/test_algebra.py", "tests/test_vectorized.py"],
    ),
    (
        "a stray _step_weights write",
        "src/nncat/backprop.py",
        "    return net._with_weights(weights), trace\n",
        "    stepped = net._with_weights(weights)\n"
        "    for layer, w in zip(stepped.layers, weights):\n"
        '        object.__setattr__(layer, "_step_weights", w)\n'
        "    return stepped, trace\n",
        ["tests/test_unchecked_rebuild_rule.py::test_one_place_sets_what_a_layer_carries"],
    ),
    (
        "a stray _step_weights read",
        "src/nncat/backprop.py",
        "    weights = _loaded(net)\n    trace = ",
        "    weights = [layer._step_weights for layer in net.layers]\n    trace = ",
        ["tests/test_unchecked_rebuild_rule.py::test_one_place_reads_what_a_layer_carries"],
    ),
    (
        "train records an inner step's loss after its update",
        "src/nncat/backprop.py",
        "value = validity(states[-1], loss)",
        "value = validity(net_forward(net._with_weights(weights), x), loss)",
        ["tests/test_backprop.py", "tests/test_cli.py"],
    ),
    (
        "the forward loop names layer idx + 1",
        "src/nncat/network.py",
        'raise DomainError(f"{exc} (layer {idx})") from exc',
        'raise DomainError(f"{exc} (layer {idx + 1})") from exc',
        ["tests/test_backprop.py", "tests/test_cli.py"],
    ),
    (
        "net_forward skips the width rule",
        "src/nncat/network.py",
        "return _forward(net, x, _loaded(net))[0][-1]",
        "return _forward(net, x, [\n"
        "        EntryWeights(layer.transition.entries, layer.transition.cols, layer.mutable)\n"
        "        for layer in net.layers\n"
        "    ])[0][-1]",
        ["tests/test_vectorized.py::test_net_forward_runs_the_weights_a_layer_carries"],
    ),
    (
        "the oracle drops the rest layer name",
        "src/nncat/oracle.py",
        'raise DomainError(f"{exc} (layer {k})") from exc',
        "raise",
        ["tests/test_differential.py"],
    ),
    (
        "functoriality_check fails on equal entries",
        "src/nncat/backprop.py",
        "if abs(x - y) > tol:",
        "if abs(x - y) >= tol:",
        [
            "tests/test_backprop.py::TestFunctoriality::test_exact_on_pure_composites",
            "tests/test_vectorized.py::test_compositionality_is_bitwise_across_kernel_kinds",
        ],
    ),
    (
        "Mat's entry-count text adds rows and cols",
        "src/nncat/algebra.py",
        "needs {self.rows * self.cols} ",
        "needs {self.rows + self.cols} ",
        ["tests/test_algebra.py"],
    ),
    (
        "kleisli_apply's shape text needs n - 1 columns",
        "src/nncat/algebra.py",
        "needs {n + 1} columns",
        "needs {n - 1} columns",
        ["tests/test_algebra.py"],
    ),
    (
        # every pure step leaves its weights as they were
        "EntryWeights.update returns self",
        "src/nncat/algebra.py",
        "return EntryWeights(tuple(new), cols, mutable)",
        "return self",
        [
            "tests/test_backprop.py",
            "tests/test_vectorized.py::test_kernels_equal_pure_kernels",
        ],
    ),
    (
        "Mat.row without its check",
        "src/nncat/algebra.py",
        "if not 0 <= j < self.rows:",
        "if False:",
        ["tests/test_algebra.py"],
    ),
    (
        # a pulled-back erosion that overflows is returned as it is
        "erosion_transform_net without its check",
        "src/nncat/backward.py",
        "if net.layers and not all(map(math.isfinite, erosions[0])):",
        "if False:",
        ["tests/test_loss.py"],
    ),
]


def pytest(root: Path, targets: list[str]) -> int | None:
    """pytest's exit code for `targets`, run in `root` on `root/src`, or
    None when the run took more than `TIMEOUT` seconds."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), str(root), os.environ.get("PYTHONPATH")) if p
    )
    command = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
        "-p", "gate_profile", "--hypothesis-profile=gate", "--hypothesis-seed=0", *targets,
    ]
    try:
        done = subprocess.run(
            command,
            cwd=root,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return None
    return done.returncode


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="nncat-mutants-") as tmp:
        root = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, root / part, ignore=skip)
        (root / "gate_profile.py").write_text(PROFILE, encoding="utf-8")

        targets = sorted({t for *_, kills in MUTANTS for t in kills})
        code = pytest(root, targets)
        if code is None:
            print(f"TIMEOUT   the unmutated copy's targets ran past {TIMEOUT} s")
            return 1
        if code != 0:
            print(f"the unmutated copy fails its targets (pytest exit {code})")
            return 1

        failures = []
        for name, file, old, new, kills in MUTANTS:
            path = root / file
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                failures.append(f"{name}: {old!r} occurs {text.count(old)} times in {file}")
                print(f"STALE     {failures[-1]}")
                continue
            path.write_text(text.replace(old, new), encoding="utf-8")
            try:
                for target in kills:
                    start = time.perf_counter()
                    code = pytest(root, [target])
                    verdict = {None: "TIMEOUT", 0: "SURVIVED", 1: "killed"}.get(
                        code, f"ERROR {code}"
                    )
                    seconds = time.perf_counter() - start
                    print(f"{verdict:9} {name}: {target} ({seconds:.1f} s)", flush=True)
                    if code is None:
                        failures.append(f"{name}: {target} ran past {TIMEOUT} s")
                    elif code != 1:
                        failures.append(f"{name}: {target} gave pytest exit {code}")
            finally:
                path.write_text(text, encoding="utf-8")

    if failures:
        print(f"{len(failures)} of the gate's checks failed:")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed by every target")
    return 0


if __name__ == "__main__":
    sys.exit(main())
