"""Command line front end.

    psvc broker run          serve the per-user broker
    psvc proxy run           serve the redirection-aware proxy
    psvc lint FILE           check one service descriptor
    psvc demo sp             run the demo service provider
    psvc demo service PORT   run the demo authentication service
    psvc scenario NAME       drive an end-to-end flow and check it

The per-user directory is ~/.PS unless --ps-dir names another.  The
broker binds a free loopback port and publishes it in broker.ept there;
--port-file also writes each server's port to a file of its own.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import TYPE_CHECKING

# argparse, base64, json and logging are imported where they are used: a
# launched demo service needs none of them, and each launch pays for what it loads.
if TYPE_CHECKING:
    import argparse

LOG_FORMAT = "%(asctime)s %(name)s %(levelname)s %(message)s"


def _parse_listen(text: str) -> tuple[str, int]:
    import argparse

    host, _, port = text.rpartition(":")
    if not host or not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, port 0-65535, got {text!r}")
    return host, int(port)


def _json_object(text: str) -> dict:
    import argparse
    import json

    value = json.loads(text)  # argparse reports a ValueError as a usage error too
    if not isinstance(value, dict):
        raise argparse.ArgumentTypeError(f"expected a JSON object, got {text!r}")
    return value


def _invoke_extras(path: str) -> tuple[tuple[tuple[str, str], ...], bytes]:
    """The headers and body a JSON file {"headers": [[k, v], ...], "body_b64": ...} names."""
    import argparse
    import json
    from base64 import b64decode

    try:
        record = json.loads(Path(path).read_text("utf-8"))
        headers = tuple((k, v) for k, v in record.get("headers", []))
        return headers, b64decode(record.get("body_b64", ""))
    except (OSError, ValueError, TypeError, AttributeError) as exc:
        raise argparse.ArgumentTypeError(f"unusable extras file {path}: {exc}") from None


# -- subcommands ------------------------------------------------------------


def _cmd_broker_run(args: argparse.Namespace) -> int:
    from .broker import BrokerServer

    ps_dir = Path(args.ps_dir)
    ps_dir.mkdir(parents=True, exist_ok=True)
    server = BrokerServer(ps_dir)
    print(f"broker at {server.netloc} serving {ps_dir}", flush=True)
    return server.run(args.port_file)


def _cmd_proxy_run(args: argparse.Namespace) -> int:
    from .proxy import PersonalServiceProxy

    server = PersonalServiceProxy(args.ps_dir, args.listen)
    print(f"proxy at {server.netloc} (per-user dir {args.ps_dir})", flush=True)
    return server.run(args.port_file)


def _cmd_lint(args: argparse.Namespace) -> int:
    from .registry import DescriptorError, read_descriptor, validate_descriptor

    path = Path(args.file)
    try:
        desc = validate_descriptor(
            read_descriptor(path), descriptor_id=path.stem, default_dir=path.parent
        )
    except OSError as exc:
        print(f"{path}: unreadable: {exc}", file=sys.stderr)
        return 1
    except DescriptorError as exc:
        print(f"{path}: {exc.problem}: {exc}", file=sys.stderr)
        return 1
    kind = "remote" if desc.is_remote else "launchable"
    print(f"{path}: ok ({kind}, {len(desc.presentation)} presentation attribute(s))")
    return 0


def _cmd_demo_sp(args: argparse.Namespace) -> int:
    from .demo.sp import FAULTS, DemoSP

    if args.fault and args.fault not in FAULTS:
        print(f"unknown fault {args.fault!r}; known: {', '.join(FAULTS)}", file=sys.stderr)
        return 2
    sp = DemoSP(
        args.listen,
        wp_query=args.wp_query,
        yp_query=args.yp_query,
        fault=args.fault,
        invoke_extras=args.invoke_extras,
    )
    print(f"demo SP at {sp.netloc}", flush=True)
    return sp.run(args.port_file)


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
        if result.workdir.exists():
            print(f"  kept {result.workdir}")
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
    import argparse

    class Parser(argparse.ArgumentParser):
        """Takes flags only in full, so no flag stands in for another (--port for --port-file)."""

        def __init__(self, **kwargs) -> None:
            super().__init__(allow_abbrev=False, **kwargs)

    parser = Parser(prog="psvc", description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_ps_dir(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--ps-dir",
            default=str(Path.home() / ".PS"),
            help="per-user service directory (default: %(default)s)",
        )

    broker = commands.add_parser("broker", help="per-user broker")
    broker_sub = broker.add_subparsers(dest="broker_command", required=True)
    broker_run = broker_sub.add_parser("run", help="serve until SIGTERM")
    add_ps_dir(broker_run)
    broker_run.add_argument("--port-file", help="write the chosen port here once listening")
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
    demo_sp.add_argument("--wp-query", type=_json_object, help="white-pages query (JSON object)")
    demo_sp.add_argument("--yp-query", type=_json_object, help="yellow-pages query (JSON object)")
    demo_sp.add_argument("--fault", help="misbehave on purpose (for the error scenarios)")
    demo_sp.add_argument(
        "--invoke-extras",
        type=_invoke_extras,
        default=((), b""),
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
        help="freeze this run's normalized transcript as the golden copy, if the run passed",
    )
    scenario.add_argument(
        "--keep", action="store_true", help="keep the working directory and print where it is"
    )
    scenario.add_argument(
        "--show-transcript", action="store_true", help="print the normalized transcript"
    )
    scenario.set_defaults(func=_cmd_scenario)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:2] == ["demo", "service"]:
        # A launched service's arguments are its own (the port comes last):
        # it starts without building the parser or configuring logging.
        from .demo.service import main as service_main

        return service_main(argv[2:])
    args = build_parser().parse_args(argv)
    if args.verbose:
        import logging

        logging.basicConfig(level=logging.DEBUG, format=LOG_FORMAT)
    else:  # a party that keeps no record never loads logging
        from .kit import Log

        Log.cli_format = LOG_FORMAT
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
