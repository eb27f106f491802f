"""The network serving tier: preemptable closure evaluation over TCP.

This package turns the single-process :class:`~repro.service.server.QueryService`
into something clients can actually share: an asyncio TCP server speaking a
newline-delimited JSON protocol, with web-preemption (bounded evaluation
quanta, suspendable/resumable saved query state, continuation tokens) and
admission control (slots, bounded queueing, per-client token buckets,
deadlines) so a whole-graph closure can never starve a point query.

The parts, bottom-up:

* :mod:`~repro.serving.protocol` — the one command grammar both the stdin
  console loop and the network server parse against;
* :mod:`~repro.serving.verbs` — the one handler table both execute through:
  every verb that reaches the service, implemented once, returning a
  plain-data document;
* :mod:`~repro.serving.preemption` — :class:`PreemptableClosureIterator`,
  the quantum-at-a-time closure evaluation with plain-data picklable
  :class:`SavedQueryState` snapshots and the bit-identical resume contract;
* :mod:`~repro.serving.continuations` — the bounded client-owned
  :class:`ContinuationStore` of suspended states;
* :mod:`~repro.serving.admission` — :class:`AdmissionController`, the slot
  / queue / token-bucket accounting;
* :mod:`~repro.serving.server` — :class:`ClosureServer`, the asyncio tier
  wiring all of the above to a :class:`QueryService`, with full
  ``repro_serving_*`` telemetry and idle-time refragmentation assessment.
"""

from .admission import AdmissionConfig, AdmissionController, AdmissionDecision, TokenBucket
from .continuations import ContinuationStore
from .preemption import (
    ALL_SOURCES,
    PreemptableClosureIterator,
    QuantumReport,
    SavedQueryState,
    StaleStateError,
)
from .protocol import (
    COMMAND_SPECS,
    CommandSpec,
    ProtocolError,
    Request,
    commands_for,
    decode_node,
    parse_json_request,
    parse_line,
)
from .server import ClosureServer, ServingConfig
from .verbs import HANDLERS, SERVICE_ERRORS, execute

__all__ = [
    "ALL_SOURCES",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDecision",
    "COMMAND_SPECS",
    "ClosureServer",
    "CommandSpec",
    "ContinuationStore",
    "HANDLERS",
    "PreemptableClosureIterator",
    "ProtocolError",
    "QuantumReport",
    "Request",
    "SERVICE_ERRORS",
    "SavedQueryState",
    "ServingConfig",
    "StaleStateError",
    "TokenBucket",
    "commands_for",
    "decode_node",
    "execute",
    "parse_json_request",
    "parse_line",
]
