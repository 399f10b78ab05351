"""Command-line interface: forward, train, gradcheck, demo.

Exit codes: 0 success, 1 a check failed, 2 usage or parse errors.  The
commands raise; `main` alone turns an error into exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import random
import sys
from typing import Any, Iterator, Sequence

from .algebra import DomainError, ShapeError, Vec
from .backprop import SgdConfig, backprop_step, train
from .demo import run_demo
from .fileio import (
    FileFormatError,
    parse_vector,
    read_dataset,
    read_network,
    write_network,
    write_trace,
)
from .loss import squared_error
from .network import Network, net_forward
from .oracle import FdConfig, fd_layer_gradient
from .randnet import random_network

SEED_ENV_VAR = "NNCAT_SEED"


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, bool]]:
    """The parser, built once, and every option mapped to whether it takes a value."""
    parser = argparse.ArgumentParser(
        prog="nncat",
        description="Two-pass multilayer perceptron engine with gradient checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {"-h": False, "--help": False}

    def add(group: Any, *names: str, **kwargs: Any) -> None:
        action = group.add_argument(*names, **kwargs)
        options.update(dict.fromkeys(action.option_strings, action.nargs is None))

    p_forward = sub.add_parser("forward", help="run a network on one input state")
    add(p_forward, "--net", required=True, help="network JSON file")
    add(p_forward, "--input", required=True, help='input state, e.g. "0.05,0.1"')
    p_forward.set_defaults(run=_cmd_forward)

    p_train = sub.add_parser("train", help="train on a CSV dataset, single-example SGD")
    add(p_train, "--net", required=True, help="network JSON file")
    add(p_train, "--data", required=True, help="CSV dataset: inputs then targets")
    add(p_train, "--eta", required=True, type=float, help="learning rate, > 0")
    add(p_train, "--epochs", required=True, type=int, help="epochs, >= 0")
    add(p_train, "--out", required=True, help="where to write the trained network")
    add(p_train, "--trace", required=True, help="where to write the loss trace CSV")
    p_train.set_defaults(run=_cmd_train)

    p_check = sub.add_parser(
        "gradcheck", help="compare analytic gradients against finite differences"
    )
    source = p_check.add_mutually_exclusive_group()
    add(source, "--net", help="network JSON file")
    add(source, "--seed", type=int, help="generate a random 3-layer network instead of --net")
    add(p_check, "--input", required=True, help="input state literal")
    add(p_check, "--target", required=True, help="target state literal")
    add(p_check, "--eta", required=True, type=float, help="learning rate, > 0")
    add(p_check, "--eps", type=float, default=1e-6, help="fd step (default 1e-6)")
    add(p_check, "--tol", type=float, default=1e-5, help="max deviation (default 1e-5)")
    p_check.set_defaults(run=_cmd_gradcheck)

    p_demo = sub.add_parser("demo", help="run a built-in worked example")
    p_demo.add_argument("example", choices=["mazur"], help="which example to run")
    p_demo.set_defaults(run=lambda args: run_demo())

    return parser, options


def _vector(args: argparse.Namespace, option: str) -> Vec:
    """The state literal given as `--option`; a bad one names the option."""
    try:
        return parse_vector(getattr(args, option))
    except FileFormatError as exc:
        raise FileFormatError(f"--{option}: {exc}") from None


@contextlib.contextmanager
def _naming(path: str | None) -> Iterator[None]:
    """A shape or overflow error raised inside names the network file
    `path` first, when the network came from one."""
    try:
        yield
    except (ShapeError, DomainError) as exc:
        if path is None:
            raise
        raise ValueError(f"{path}: {exc}") from exc


def _cmd_forward(args: argparse.Namespace) -> int:
    net = read_network(args.net)
    x = _vector(args, "input")
    with _naming(args.net):
        y = net_forward(net, x)
    print(",".join(f"{v:.8f}" for v in y))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    net = read_network(args.net)
    dataset = read_dataset(args.data, net.in_dim, net.out_dim)
    trained, losses = train(net, dataset, args.eta, SgdConfig(args.epochs))
    write_network(args.out, trained)
    write_trace(args.trace, losses)
    print(f"trained {args.epochs} epoch(s) over {len(dataset)} row(s); "
          f"wrote {args.out} and {args.trace}")
    return 0


def _gradcheck_network(args: argparse.Namespace, in_dim: int, out_dim: int) -> Network:
    if args.net is not None:
        return read_network(args.net)
    env_seed = os.environ.get(SEED_ENV_VAR)  # wins over --seed
    seed = args.seed if env_seed is None else int(env_seed)
    if seed is None:
        raise FileFormatError("gradcheck needs --net, or --seed / " + SEED_ENV_VAR)
    return random_network(random.Random(seed), in_dim, out_dim, depth=3)


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    if not args.eta > 0.0:
        raise ValueError(f"--eta must be > 0, got {args.eta}")
    # 0 is a valid bound that only exact agreement meets
    if not args.tol >= 0.0:
        raise ValueError(f"--tol must be >= 0, got {args.tol}")
    x = _vector(args, "input")
    target = _vector(args, "target")
    net = _gradcheck_network(args, len(x), len(target))
    loss = squared_error(target, args.eta)
    cfg = FdConfig(eps=args.eps)
    all_ok = True
    with _naming(args.net):
        _, trace = backprop_step(net, x, loss)
        for idx, layer in enumerate(net.layers):
            suffix = Network(net.layers[idx + 1 :], layer.out_dim, net.out_dim)
            try:
                fd = fd_layer_gradient(layer, trace.states[idx], loss, cfg, rest=suffix)
            except DomainError as exc:
                raise DomainError(
                    f"layer {idx}: finite differences at --eps {args.eps}: {exc}"
                ) from exc
            pairs = zip(trace.gradients[idx].matrix.entries, fd.matrix.entries)
            deviation = max((abs(a - b) for a, b in pairs), default=0.0)
            ok = deviation <= args.tol
            all_ok &= ok
            print(
                f"layer {idx}: max |analytic - fd| = {deviation:.3e} "
                f"(tol {args.tol:.3e}) {'ok' if ok else 'FAIL'}"
            )
    if not net.layers:
        print("network has no layers; nothing to check")
    return 0 if all_ok else 1


def _glue_values(options: dict[str, bool], argv: Sequence[str]) -> list[str]:
    """Write `--opt value` as `--opt=value` when `--opt` takes a value and `value`
    names no nncat option, so that argparse reads "-0.2,0.4" or "-1e-6" as a value.
    As in argparse, a unique prefix of an option names it."""
    def names(token: str) -> list[str]:
        return [token] if token in options else [o for o in options if o.startswith(token)]
    out: list[str] = []
    for token in argv:
        named = names(out[-1]) if out else []
        if len(named) == 1 and options[named[0]] and not names(token.split("=")[0]):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser, options = _build_parser()
    args = parser.parse_args(_glue_values(options, sys.argv[1:] if argv is None else argv))
    try:
        return args.run(args)
    except (OSError, ValueError) as exc:
        print(f"nncat: error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())
