"""Command line front end.

    psvc broker run          serve the per-user broker
    psvc proxy run           serve the redirection-aware proxy
    psvc lint FILE           check one service descriptor
    psvc demo sp             run the demo service provider
    psvc demo service PORT   run the demo authentication service
    psvc scenario NAME       drive an end-to-end flow and check it

The per-user directory defaults to ~/.PS; the PSVC_HOME environment
variable moves the home base, and --ps-dir overrides the full path.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import signal
import sys
import threading
from base64 import b64decode
from pathlib import Path

PS_DIR_NAME = ".PS"
HOME_ENV = "PSVC_HOME"


def default_ps_dir() -> Path:
    base = os.environ.get(HOME_ENV)
    return (Path(base) if base else Path.home()) / PS_DIR_NAME


def _serve_until_signal(server, port_file: str | None) -> int:
    """Publish the bound port if asked, serve until SIGINT/SIGTERM, tear down."""
    from .kit import write_port_file

    if port_file:
        write_port_file(port_file, server.port)
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    server.start()
    stop.wait()
    server.shutdown()
    return 0


def _parse_listen(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


# -- subcommands ------------------------------------------------------------


def _cmd_broker_run(args: argparse.Namespace) -> int:
    from .broker import BrokerOptions, BrokerServer

    ps_dir = Path(args.ps_dir)
    ps_dir.mkdir(parents=True, exist_ok=True)
    options = BrokerOptions(
        bind_handles_to_sp=not args.no_sp_binding,
        handle_max_age_s=args.handle_max_age,
    )
    server = BrokerServer(ps_dir, port=args.port, options=options)
    print(f"broker at {server.endpoint} serving {ps_dir}", flush=True)
    return _serve_until_signal(server, args.port_file)


def _cmd_proxy_run(args: argparse.Namespace) -> int:
    from .proxy import ProxyConfig, ProxyServer

    host, port = args.listen
    config = ProxyConfig(
        listen_host=host,
        listen_port=port,
        ps_dir=Path(args.ps_dir),
        max_chain=args.max_chain,
        broker_autolaunch=not args.no_broker_autolaunch,
    )
    server = ProxyServer(config)
    print(f"proxy at {server.address} (per-user dir {args.ps_dir})", flush=True)
    return _serve_until_signal(server, args.port_file)


def _cmd_lint(args: argparse.Namespace) -> int:
    from .registry import DescriptorError, validate_descriptor

    path = Path(args.file)
    try:
        text = path.read_text("utf-8")
    except OSError as exc:
        print(f"{path}: unreadable: {exc}", file=sys.stderr)
        return 1
    try:
        desc = validate_descriptor(text, descriptor_id=path.stem, default_dir=path.parent)
    except DescriptorError as exc:
        print(f"{path}: {exc.problem}: {exc}", file=sys.stderr)
        return 1
    kind = "remote" if desc.is_remote else "launchable"
    print(f"{path}: ok ({kind}, {len(desc.presentation)} presentation attribute(s))")
    return 0


def _cmd_demo_sp(args: argparse.Namespace) -> int:
    from .demo.sp import FAULTS, DemoSP, SPConfig

    host, port = args.listen
    extra_headers: tuple[tuple[str, str], ...] = ()
    extra_body = b""
    if args.invoke_extras:
        record = json.loads(Path(args.invoke_extras).read_text("utf-8"))
        extra_headers = tuple((k, v) for k, v in record.get("headers", []))
        extra_body = b64decode(record.get("body_b64", ""))
    if args.fault and args.fault not in FAULTS:
        print(f"unknown fault {args.fault!r}; known: {', '.join(FAULTS)}", file=sys.stderr)
        return 2
    config = SPConfig(
        host=host,
        port=port,
        fault=args.fault,
        invoke_extra_headers=extra_headers,
        invoke_extra_body=extra_body,
    )
    if args.wp_query:
        config.wp_query = json.loads(args.wp_query)
    if args.yp_query:
        config.yp_query = json.loads(args.yp_query)
    sp = DemoSP(config)
    print(f"demo SP at {sp.netloc}", flush=True)
    return _serve_until_signal(sp, args.port_file)


def _cmd_demo_service(args: argparse.Namespace) -> int:
    from .demo.service import main as service_main

    return service_main(list(args.service_args))


def _cmd_scenario(args: argparse.Namespace) -> int:
    from .scenario import SCENARIOS, run_scenario

    if args.list:
        for name in SCENARIOS:
            print(name)
        return 0
    if not args.name:
        print("name a scenario or pass --list", file=sys.stderr)
        return 2
    names = list(SCENARIOS) if args.name == "all" else [args.name]
    worst = 0
    for name in names:
        if name not in SCENARIOS:
            print(f"unknown scenario {name!r}; try --list", file=sys.stderr)
            return 2
        result = run_scenario(name, write_golden=args.write_golden, keep=args.keep)
        state = "PASS" if result.passed else "FAIL"
        print(f"{state} {name} ({result.duration_s:.1f}s)")
        for failure in result.failures:
            print(f"  {failure}")
        if args.show_transcript or not result.passed:
            for line in result.lines:
                print(f"  | {line}")
        if not result.passed:
            worst = 1
    return worst


# -- wiring -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="psvc", description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_ps_dir(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--ps-dir",
            default=str(default_ps_dir()),
            help="per-user service directory (default: %(default)s)",
        )

    broker = commands.add_parser("broker", help="per-user broker")
    broker_sub = broker.add_subparsers(dest="broker_command", required=True)
    broker_run = broker_sub.add_parser("run", help="serve until SIGTERM")
    add_ps_dir(broker_run)
    broker_run.add_argument("--port", type=int, default=0, help="listening port (0 = any)")
    broker_run.add_argument("--port-file", help="write the chosen port here once listening")
    broker_run.add_argument(
        "--no-sp-binding",
        action="store_true",
        help="let any site use a handle minted for another",
    )
    broker_run.add_argument(
        "--handle-max-age", type=float, default=None, help="handle lifetime in seconds"
    )
    broker_run.set_defaults(func=_cmd_broker_run)

    proxy = commands.add_parser("proxy", help="redirection-aware HTTP proxy")
    proxy_sub = proxy.add_subparsers(dest="proxy_command", required=True)
    proxy_run = proxy_sub.add_parser("run", help="serve until SIGTERM")
    add_ps_dir(proxy_run)
    proxy_run.add_argument(
        "--listen",
        type=_parse_listen,
        default=("127.0.0.1", 3128),
        help="HOST:PORT to listen on (default: 127.0.0.1:3128)",
    )
    proxy_run.add_argument("--port-file", help="write the chosen port here once listening")
    proxy_run.add_argument("--max-chain", type=int, default=8, help="redirection budget")
    proxy_run.add_argument(
        "--no-broker-autolaunch",
        action="store_true",
        help="never start a broker; report unreachable instead",
    )
    proxy_run.set_defaults(func=_cmd_proxy_run)

    lint = commands.add_parser("lint", help="validate a .psd service descriptor")
    lint.add_argument("file")
    lint.set_defaults(func=_cmd_lint)

    demo = commands.add_parser("demo", help="demo parties")
    demo_sub = demo.add_subparsers(dest="demo_command", required=True)

    demo_sp = demo_sub.add_parser("sp", help="service provider wanting eID sign-in")
    demo_sp.add_argument(
        "--listen",
        type=_parse_listen,
        default=("127.0.0.1", 8080),
        help="HOST:PORT to listen on (default: 127.0.0.1:8080)",
    )
    demo_sp.add_argument("--port-file", help="write the chosen port here once listening")
    demo_sp.add_argument("--wp-query", help="white-pages query as a JSON object")
    demo_sp.add_argument("--yp-query", help="yellow-pages query as a JSON object")
    demo_sp.add_argument("--fault", help="misbehave on purpose (for the error scenarios)")
    demo_sp.add_argument(
        "--invoke-extras",
        help="JSON file with extra headers/body to attach to the invocation",
    )
    demo_sp.set_defaults(func=_cmd_demo_sp)

    demo_service = demo_sub.add_parser(
        "service", help="mock eID authenticator (port as last argument)"
    )
    demo_service.add_argument("service_args", nargs="*")
    demo_service.set_defaults(func=_cmd_demo_service)

    scenario = commands.add_parser("scenario", help="end-to-end flow checks")
    scenario.add_argument("name", nargs="?", help="scenario name, or 'all'")
    scenario.add_argument("--list", action="store_true", help="list scenario names")
    scenario.add_argument(
        "--write-golden",
        action="store_true",
        help="freeze this run's normalized transcript as the golden copy",
    )
    scenario.add_argument("--keep", action="store_true", help="keep the working directory")
    scenario.add_argument(
        "--show-transcript", action="store_true", help="print the normalized transcript"
    )
    scenario.set_defaults(func=_cmd_scenario)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
