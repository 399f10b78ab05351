"""Command-line interface: forward, train, gradcheck, demo.

Exit codes: 0 success, 1 a check failed, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import Sequence

from .algebra import DomainError, ShapeError
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
from .loss import squared_error, transform_loss
from .network import Network, net_forward
from .oracle import FdConfig, fd_layer_gradient
from .randnet import random_network

SEED_ENV_VAR = "NNCAT_SEED"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nncat",
        description="Two-pass multilayer perceptron engine with gradient checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_forward = sub.add_parser("forward", help="run a network on one input state")
    p_forward.add_argument("--net", required=True, help="network JSON file")
    p_forward.add_argument("--input", required=True, help='input state, e.g. "0.05,0.1"')

    p_train = sub.add_parser("train", help="train on a CSV dataset, single-example SGD")
    p_train.add_argument("--net", required=True, help="network JSON file")
    p_train.add_argument("--data", required=True, help="CSV dataset: inputs then targets")
    p_train.add_argument("--eta", required=True, type=float, help="learning rate, > 0")
    p_train.add_argument("--epochs", required=True, type=int, help="epochs, >= 0")
    p_train.add_argument("--out", required=True, help="where to write the trained network")
    p_train.add_argument("--trace", required=True, help="where to write the loss trace CSV")

    p_check = sub.add_parser(
        "gradcheck", help="compare analytic gradients against finite differences"
    )
    source = p_check.add_mutually_exclusive_group()
    source.add_argument("--net", help="network JSON file")
    source.add_argument(
        "--seed", type=int, help="generate a random 3-layer network instead of --net"
    )
    p_check.add_argument("--input", required=True, help="input state literal")
    p_check.add_argument("--target", required=True, help="target state literal")
    p_check.add_argument("--eta", required=True, type=float, help="learning rate, > 0")
    p_check.add_argument("--eps", type=float, default=1e-6, help="fd step (default 1e-6)")
    p_check.add_argument("--tol", type=float, default=1e-5, help="max deviation (default 1e-5)")

    p_demo = sub.add_parser("demo", help="run a built-in worked example")
    p_demo.add_argument("example", choices=["mazur"], help="which example to run")

    return parser


def _fail(message: str) -> int:
    print(f"nncat: error: {message}", file=sys.stderr)
    return 2


def _cmd_forward(args: argparse.Namespace) -> int:
    try:
        net = read_network(args.net)
    except (FileFormatError, OSError) as exc:
        return _fail(str(exc))
    try:
        x = parse_vector(args.input)
    except FileFormatError as exc:
        return _fail(f"--input: {exc}")
    try:
        y = net_forward(net, x)
    except (ShapeError, DomainError) as exc:
        return _fail(f"{args.net}: {exc}")
    print(",".join(f"{v:.8f}" for v in y))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    if not args.eta > 0.0:
        return _fail(f"--eta must be > 0, got {args.eta}")
    if args.epochs < 0:
        return _fail(f"--epochs must be >= 0, got {args.epochs}")
    try:
        net = read_network(args.net)
        dataset = read_dataset(args.data, net.in_dim, net.out_dim)
    except (FileFormatError, OSError) as exc:
        return _fail(str(exc))
    if not dataset:
        return _fail(f"{args.data}: dataset is empty")
    try:
        trained, losses = train(net, dataset, args.eta, SgdConfig(args.epochs))
    except (ShapeError, ValueError) as exc:
        return _fail(str(exc))
    try:
        write_network(args.out, trained)
        write_trace(args.trace, losses)
    except OSError as exc:
        return _fail(str(exc))
    print(f"trained {args.epochs} epoch(s) over {len(dataset)} row(s); "
          f"wrote {args.out} and {args.trace}")
    return 0


def _gradcheck_network(args: argparse.Namespace, in_dim: int, out_dim: int) -> Network:
    if args.net is not None:
        return read_network(args.net)
    seed = args.seed
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:  # env wins over --seed
        try:
            seed = int(env_seed)
        except ValueError:
            raise FileFormatError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}")
    if seed is None:
        raise FileFormatError("gradcheck needs --net, or --seed / " + SEED_ENV_VAR)
    return random_network(random.Random(seed), in_dim, out_dim, depth=3)


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    if not args.eta > 0.0:
        return _fail(f"--eta must be > 0, got {args.eta}")
    try:
        x = parse_vector(args.input)
        target = parse_vector(args.target)
        net = _gradcheck_network(args, len(x), len(target))
    except (FileFormatError, OSError) as exc:
        return _fail(str(exc))

    loss = squared_error(target, args.eta)
    try:
        cfg = FdConfig(eps=args.eps)
        _, trace = backprop_step(net, x, loss)
    except (ShapeError, ValueError) as exc:
        return _fail(str(exc))

    all_ok = True
    for idx, layer in enumerate(net.layers):
        suffix = Network(net.layers[idx + 1 :], layer.out_dim, net.out_dim)
        try:
            fd = fd_layer_gradient(layer, trace.states[idx], transform_loss(suffix, loss), cfg)
        except DomainError as exc:
            return _fail(f"layer {idx}: finite differences at --eps {args.eps}: {exc}")
        analytic = trace.gradients[idx]
        deviation = max(
            (abs(a - b) for a, b in zip(analytic.matrix.entries, fd.matrix.entries)),
            default=0.0,
        )
        ok = deviation <= args.tol
        all_ok &= ok
        print(
            f"layer {idx}: max |analytic - fd| = {deviation:.3e} "
            f"(tol {args.tol:.3e}) {'ok' if ok else 'FAIL'}"
        )
    if not net.layers:
        print("network has no layers; nothing to check")
    return 0 if all_ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "forward":
        return _cmd_forward(args)
    if args.command == "train":
        return _cmd_train(args)
    if args.command == "gradcheck":
        return _cmd_gradcheck(args)
    if args.command == "demo":
        return run_demo()
    raise AssertionError(f"unhandled command {args.command!r}")


def console_entry() -> None:
    sys.exit(main())
