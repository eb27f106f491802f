"""The one serving command grammar, shared by every front-end.

``repro serve`` (the stdin line loop) and :class:`~repro.serving.server.ClosureServer`
(the network tier) accept the same commands; this module is the single place
their grammar lives, so the two surfaces can never drift apart: one spec
table, one tokenizer, one arity/choice check, one error type.

A surface parses its raw input into a :class:`Request`:

* the console loop calls :func:`parse_line` on each stdin line,
* the network server calls :func:`parse_json_request` on each decoded
  newline-delimited JSON object (``{"op": "query", "args": ["a", "b"]}``),

and both get back a validated request — or a :class:`ProtocolError` whose
message is what the surface reports verbatim (``error: ...``), which is the
shared error path.  Coercions (node decoding, weights, counts) live on the
request, so "integers stay integers, the rest are strings" means the same
thing over a socket as it does on stdin, and a JSON argument of the wrong
type is a :class:`ProtocolError` on either.  What a validated request *does*
is :mod:`repro.serving.verbs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import ReproError

__all__ = [
    "COMMAND_SPECS",
    "CommandSpec",
    "ProtocolError",
    "Request",
    "commands_for",
    "decode_node",
    "parse_json_request",
    "parse_line",
]

CONSOLE = "console"
NETWORK = "network"
_SURFACES = (CONSOLE, NETWORK)


class ProtocolError(ReproError):
    """A request that violates the serving grammar (unknown op, bad arity)."""


def decode_node(value: object) -> object:
    """Interpret a node argument: integers stay integers, the rest unchanged.

    Shared by both surfaces so a node key round-trips identically whether it
    arrived as a stdin token, a JSON string, or a JSON number.
    """
    if isinstance(value, str):
        return int(value) if value.lstrip("-").isdigit() else value
    return value


@dataclass(frozen=True)
class CommandSpec:
    """One command of the serving grammar.

    Attributes:
        name: the command word (``query``, ``closure``, ...).
        usage: the one-line usage string arity errors report.
        min_args / max_args: inclusive argument-count bounds (``max_args``
            ``None`` means unbounded).
        even_args: the argument count must additionally be even (``batch``).
        choices: when set, the first argument must be one of these.
        surfaces: the front-ends offering the command.
    """

    name: str
    usage: str
    min_args: int = 0
    max_args: Optional[int] = 0
    even_args: bool = False
    choices: Optional[Tuple[str, ...]] = None
    surfaces: Tuple[str, ...] = (CONSOLE, NETWORK)

    def validate(self, args: Sequence[object]) -> None:
        """Check arity and first-argument choices; raise :class:`ProtocolError`."""
        count = len(args)
        if count < self.min_args or (self.max_args is not None and count > self.max_args):
            raise ProtocolError(f"usage: {self.usage}")
        if self.even_args and count % 2:
            raise ProtocolError(f"usage: {self.usage}")
        if self.choices is not None and args:
            first = str(args[0]).lower()
            if first not in self.choices:
                raise ProtocolError(
                    f"usage: {self.usage} (got {args[0]!r}, expected one of "
                    f"{'|'.join(self.choices)})"
                )


# The grammar.  Console-only commands are the ones that only make sense at
# the server's own terminal (writing a snapshot to the local filesystem,
# ending the process); network-only commands are the preemptive serving
# verbs (streamed closures, continuations, identity) that make no sense on
# stdin.  Everything else — queries, telemetry, health, and the operator
# controls (placement/migrate/rebalance/refragment/advise) — is offered on
# both surfaces, so a remote operator is never blinder than a local one.
#
# Network requests may carry a free-form ``traceparent`` option (a W3C
# ``00-<32hex>-<16hex>-<2hex>`` value): the server adopts it as the
# request's distributed trace context.
_SPECS: Tuple[CommandSpec, ...] = (
    CommandSpec("query", "query SOURCE TARGET", 2, 2),
    CommandSpec("batch", "batch SOURCE TARGET [SOURCE TARGET ...]", 2, None, even_args=True),
    CommandSpec("update", "update SOURCE TARGET [WEIGHT]", 2, 3),
    CommandSpec("delete", "delete SOURCE TARGET", 2, 2),
    CommandSpec("stats", "stats [text|json|prometheus]", 0, 1),
    CommandSpec("slowlog", "slowlog [COUNT]", 0, 1),
    CommandSpec("trace", "trace on|off", 1, 1, choices=("on", "off")),
    CommandSpec("healthz", "healthz", 0, 0),
    CommandSpec("readyz", "readyz", 0, 0),
    CommandSpec("profile", "profile [COUNT]", 0, 1),
    CommandSpec("placement", "placement"),
    CommandSpec("migrate", "migrate FRAGMENT WORKER", 2, 2),
    CommandSpec("rebalance", "rebalance"),
    CommandSpec("refragment", "refragment [ALGORITHM]", 0, 1),
    CommandSpec("advise", "advise"),
    CommandSpec("snapshot", "snapshot DIRECTORY", 1, 1, surfaces=(CONSOLE,)),
    CommandSpec("quit", "quit", surfaces=(CONSOLE,)),
    CommandSpec("exit", "exit", surfaces=(CONSOLE,)),
    CommandSpec("hello", "hello CLIENT_NAME", 1, 1, surfaces=(NETWORK,)),
    CommandSpec("ping", "ping", surfaces=(NETWORK,)),
    CommandSpec("closure", "closure SOURCE|*", 1, 1, surfaces=(NETWORK,)),
    CommandSpec("resume", "resume CONTINUATION_TOKEN", 1, 1, surfaces=(NETWORK,)),
    CommandSpec("cancel", "cancel CONTINUATION_TOKEN", 1, 1, surfaces=(NETWORK,)),
)

COMMAND_SPECS: Dict[str, CommandSpec] = {spec.name: spec for spec in _SPECS}


def commands_for(surface: str) -> List[str]:
    """Return the command names a surface offers, in grammar order."""
    if surface not in _SURFACES:
        raise ValueError(f"unknown surface {surface!r} (expected one of {_SURFACES})")
    return [spec.name for spec in _SPECS if surface in spec.surfaces]


@dataclass(frozen=True)
class Request:
    """One validated serving command with typed argument accessors.

    The accessors are the trust boundary for argument *types*: a stdin token
    is always a string, but a JSON argument may be ``null``, a boolean, an
    array or an object, and those are a :class:`ProtocolError` here rather
    than a ``TypeError`` somewhere inside the service.
    """

    op: str
    args: Tuple[object, ...] = ()
    options: Mapping[str, object] = field(default_factory=dict)

    def _scalar(self, index: int) -> object:
        value = self.args[index]
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ProtocolError(
                f"argument {index + 1} of {self.op!r} must be a string or a "
                f"number, got {value!r}"
            )
        return value

    def node(self, index: int) -> object:
        """Return argument ``index`` decoded as a node key."""
        return decode_node(self._scalar(index))

    def text(self, index: int, default: Optional[str] = None) -> Optional[str]:
        """Return argument ``index`` as a string (``default`` when absent)."""
        if index >= len(self.args):
            return default
        return str(self._scalar(index))

    def number(self, index: int, default: Optional[float] = None) -> Optional[float]:
        """Return argument ``index`` as a float (``default`` when absent)."""
        if index >= len(self.args):
            return default
        return float(self._scalar(index))  # type: ignore[arg-type]

    def integer(self, index: int, default: Optional[int] = None) -> Optional[int]:
        """Return argument ``index`` as an int (``default`` when absent)."""
        if index >= len(self.args):
            return default
        return int(self._scalar(index))  # type: ignore[call-overload]

    def pairs(self) -> List[Tuple[object, object]]:
        """Return the arguments as decoded (source, target) query pairs."""
        return [(self.node(i), self.node(i + 1)) for i in range(0, len(self.args), 2)]

    def option(self, key: str, default: object = None) -> object:
        """Return a free-form request option (network requests only)."""
        return self.options.get(key, default)


def _validated(op: str, args: Sequence[object], surface: str, raw: object) -> CommandSpec:
    spec = COMMAND_SPECS.get(op)
    if spec is None or surface not in spec.surfaces:
        raise ProtocolError(f"unrecognised command {raw!r}")
    spec.validate(args)
    return spec


def parse_line(line: str, *, surface: str = CONSOLE) -> Optional[Request]:
    """Parse one command line into a :class:`Request` (``None`` for blank lines).

    Raises:
        ProtocolError: unknown command for the surface, or bad arity/choice.
    """
    if surface not in _SURFACES:
        raise ValueError(f"unknown surface {surface!r} (expected one of {_SURFACES})")
    words = line.split()
    if not words:
        return None
    op, args = words[0].lower(), tuple(words[1:])
    _validated(op, args, surface, line.strip())
    return Request(op=op, args=args)


def parse_json_request(document: object, *, surface: str = NETWORK) -> Request:
    """Validate one decoded JSON request object into a :class:`Request`.

    The wire shape is ``{"op": NAME, "args": [...], ...options}``; every key
    besides ``op`` and ``args`` rides along as a request option (``id``,
    ``timeout``, ``pages`` — the server decides which it honours).

    Raises:
        ProtocolError: non-object document, missing/unknown op, bad arity.
    """
    if not isinstance(document, Mapping):
        raise ProtocolError("request must be a JSON object with an 'op' field")
    op_raw = document.get("op")
    if not isinstance(op_raw, str) or not op_raw:
        raise ProtocolError("request must name its 'op' as a string")
    args_raw = document.get("args", [])
    if not isinstance(args_raw, (list, tuple)):
        raise ProtocolError("'args' must be an array")
    op, args = op_raw.lower(), tuple(args_raw)
    _validated(op, args, surface, op_raw)
    options = {key: value for key, value in document.items() if key not in ("op", "args")}
    return Request(op=op, args=args, options=options)
