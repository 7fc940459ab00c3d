"""drift-guard command line.

Subcommands: init (register a benchmark and mint the first token), serve
(run the proxy and its detection loop), tick (force one detection run),
replay (diff two captured corpora offline), tune (sweep thresholds over a
corpus pair), simulate (run the deterministic mock upstream).

Exit codes: 0 success, 2 invalid input (manifest, rules, script, corpus,
or an unusable storage path or input file), 3 upstream or proxy
unreachable / detection aborted, 4 address in use, 5 proxy not
initialised. init, replay and tune report a bad manifest one
`path:lineno: message` line per bad line.

Commands raise; main() maps each failure class to its exit code. Only the
failures whose meaning depends on where they happen are handled in place.
"""

from __future__ import annotations

import argparse
import errno
import logging
import signal
import sys
import threading

from .config import ManifestError, load_config, load_rules_file, parse_manifest, resolve_config_path
from .corpus import load_corpus_pair
from .diffing import evaluate_epochs
from .engine import OUTCOME_NO_CHANGE, OUTCOME_ROTATED, GuardEngine, UpstreamUnreachable
from .httpbase import post_json
from .proxy import ProxyServer
from .simulator import SimulatorServer, parse_script
from .token import TokenStore, validators
from .tuner import tune_thresholds
from .types import parse_json, pretty_json, read_utf8

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_UNREACHABLE = 3
EXIT_ADDRESS_IN_USE = 4
EXIT_NOT_INITIALIZED = 5

log = logging.getLogger(__name__)


def _fail(message: str, code: int) -> int:
    print(f"drift-guard: {message}", file=sys.stderr)
    return code


def _client_base_url(config) -> str:
    host = config.listen_host
    if host in ("0.0.0.0", "::"):
        host = "127.0.0.1"
    return f"http://{host}:{config.listen_port}"


def _json_object(raw: bytes) -> dict:
    """A proxy reply body as a JSON object; anything else reads as {}, since
    something other than the proxy may be answering."""
    try:
        reply = parse_json(raw)
    except ValueError:
        return {}
    return reply if isinstance(reply, dict) else {}


def _load_config_arg(args):
    return load_config(resolve_config_path(args.config))


def _serve(bind, in_use: str, banner, *companions) -> int:
    """Bind, start the server and then its companions, print `banner` and
    run until SIGINT or SIGTERM; the companions stop before the server."""
    try:
        server = bind()
    except OSError as exc:
        return _fail(in_use if exc.errno == errno.EADDRINUSE else str(exc), EXIT_ADDRESS_IN_USE)
    stop = threading.Event()
    previous = {
        signum: signal.signal(signum, lambda *_: stop.set())
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    parts = (server, *companions)
    for part in parts:
        part.start()
    try:
        print(banner(server), flush=True)
        stop.wait()
    finally:
        for part in reversed(parts):
            part.stop()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return EXIT_OK


# ------------------------------------------------------------------ commands


def cmd_init(args) -> int:
    config = _load_config_arg(args)
    items = parse_manifest(args.manifest)
    body = {"items": [item.to_dict() for item in items], "rules": config.rules.to_dict()}
    try:
        status, headers, raw = post_json(f"{_client_base_url(config)}/benchmark", body, 300)
        reply = _json_object(raw)
    except ConnectionRefusedError:
        # Nothing listens; bootstrap directly against the storage path so a
        # later `serve` picks the token up.
        with TokenStore.lock(config.storage_path):
            token = GuardEngine(config).initialize_benchmark(items, config.rules)
        status, headers, reply = 201, validators(token), token.metadata()
    except OSError as exc:
        # Something listens but did not answer: it may be a proxy that owns
        # the storage path, so never write there alongside it.
        return _fail(f"proxy unreachable: {exc}", EXIT_UNREACHABLE)
    if status == 201 and "token_id" in reply:
        print(f"token_id: {reply['token_id']}")
        print(f"etag: {headers.get('ETag', '')}")
        return EXIT_OK
    if status == 502:
        return _fail(f"upstream unreachable: {reply.get('error', '')}", EXIT_UNREACHABLE)
    return _fail(f"proxy rejected the benchmark: {reply.get('error', status)}",
                 EXIT_INVALID_INPUT)


def cmd_serve(args) -> int:
    config = _load_config_arg(args)
    with TokenStore.lock(config.storage_path):
        engine = GuardEngine(config)
        return _serve(
            lambda: ProxyServer(config, engine=engine),
            f"address {config.listen} is already in use",
            lambda server: f"listening on {server.base_url}",
            engine,
        )


def cmd_tick(args) -> int:
    config = _load_config_arg(args)
    try:
        status, _, raw = post_json(f"{_client_base_url(config)}/admin/detect", None, 300)
    except OSError as exc:
        return _fail(f"proxy unreachable: {exc}", EXIT_UNREACHABLE)
    if status == 409:
        return _fail("proxy has no benchmark yet", EXIT_NOT_INITIALIZED)
    payload = _json_object(raw)
    outcome = payload.get("outcome")
    ids = (payload.get("old_token_id"), payload.get("new_token_id"))
    rotated = outcome == OUTCOME_ROTATED and all(isinstance(i, str) for i in ids)
    if status != 202 or not (rotated or outcome == OUTCOME_NO_CHANGE):
        return _fail(f"detection aborted: {payload.get('reason', status)}", EXIT_UNREACHABLE)
    print(f"token_rotated: {ids[0]} -> {ids[1]}" if rotated else "no_change")
    return EXIT_OK


def _load_pair(args):
    items = None
    if getattr(args, "manifest", None):
        items = parse_manifest(args.manifest)
    return load_corpus_pair(args.old, args.new, items)


def cmd_replay(args) -> int:
    rules = load_rules_file(args.rules)
    dataset, old_snapshot, new_snapshot = _load_pair(args)
    report = evaluate_epochs(old_snapshot, new_snapshot, dataset, rules)
    document = report.to_dict()
    document["violations"] = [
        {
            "image_ref": v.image_ref,
            "error_code": v.error_code,
            "error_type": v.error_type,
            "reason": v.reason,
        }
        for v in report.violations
    ]
    print(pretty_json(document))
    return EXIT_OK


def cmd_tune(args) -> int:
    try:
        label_grid = [int(v) for v in args.labels.split(",") if v.strip()]
        confidence_grid = [float(v) for v in args.confs.split(",") if v.strip()]
    except ValueError as exc:
        return _fail(f"bad grid: {exc}", EXIT_INVALID_INPUT)
    rules = load_rules_file(args.rules) if args.rules else None
    dataset, old_snapshot, new_snapshot = _load_pair(args)
    matrix = tune_thresholds(
        old_snapshot, new_snapshot, dataset, label_grid, confidence_grid, base_rules=rules
    )
    print(matrix.to_tsv(pretty=args.pretty))
    return EXIT_OK


def cmd_simulate(args) -> int:
    script = parse_script(read_utf8(args.script), seed=args.seed)
    return _serve(
        lambda: SimulatorServer(script, host=args.host, port=args.port),
        f"port {args.port} is already in use",
        lambda server: f"simulator listening on {server.endpoint} (seed {script.seed})",
    )


# ------------------------------------------------------------------- parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drift-guard",
        description="Guard proxy for evolving image-labelling services",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init", help="register a benchmark and mint the first token")
    p_init.add_argument("--manifest", required=True, help="benchmark manifest (TSV)")
    p_init.add_argument("--config", default=None, help="proxy config file")
    p_init.set_defaults(func=cmd_init)

    p_serve = sub.add_parser("serve", help="run the proxy and its detection loop")
    p_serve.add_argument("--config", default=None, help="proxy config file")
    p_serve.set_defaults(func=cmd_serve)

    p_tick = sub.add_parser("tick", help="force one detection run")
    p_tick.add_argument("--config", default=None, help="proxy config file")
    p_tick.set_defaults(func=cmd_tick)

    p_replay = sub.add_parser("replay", help="diff two captured corpora")
    p_replay.add_argument("--old", required=True, help="directory of old-epoch responses")
    p_replay.add_argument("--new", required=True, help="directory of new-epoch responses")
    p_replay.add_argument("--rules", required=True, help="threshold rules file")
    p_replay.add_argument("--manifest", default=None, help="optional benchmark manifest")
    p_replay.set_defaults(func=cmd_replay)

    p_tune = sub.add_parser("tune", help="sweep thresholds over a corpus pair")
    p_tune.add_argument("--old", required=True)
    p_tune.add_argument("--new", required=True)
    p_tune.add_argument("--labels", required=True, help="comma-joined max_delta_labels grid")
    p_tune.add_argument("--confs", required=True, help="comma-joined max_delta_confidence grid")
    p_tune.add_argument("--rules", default=None, help="optional rules file (global expected labels)")
    p_tune.add_argument("--manifest", default=None, help="optional benchmark manifest")
    p_tune.add_argument("--pretty", action="store_true", help="align columns for reading")
    p_tune.set_defaults(func=cmd_tune)

    p_sim = sub.add_parser("simulate", help="serve the deterministic mock upstream")
    p_sim.add_argument("--script", required=True, help="drift script file")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--port", type=int, required=True)
    p_sim.add_argument("--host", default="127.0.0.1")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s %(levelname)s %(message)s"
    )
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ManifestError as exc:
        for lineno, message in exc.errors:
            print(f"{exc.path}:{lineno}: {message}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (ValueError, OSError) as exc:
        # every parse error subclasses ValueError; OSError is an unreadable
        # input file or an unusable storage path
        return _fail(str(exc), EXIT_INVALID_INPUT)
    except UpstreamUnreachable as exc:
        return _fail(str(exc), EXIT_UNREACHABLE)


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
