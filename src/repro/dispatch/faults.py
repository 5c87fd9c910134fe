"""Deterministic fault injection for dispatch workers.

Every recovery path in the dispatcher — retry after a crash, torn-tail
tolerance, heartbeat-based hang detection, corrupt-output rejection — is
exercised by *injecting* the failure rather than trusting that the code
would survive one.  A :class:`FaultPlan` (parsed from ``repro dispatch
--inject``) maps ``(shard, attempt)`` pairs to one of four fault kinds:

``crash``
    die before writing any output (a worker killed mid-shard);
``torn``
    write roughly half the output bytes, fsync, then die (a torn tail);
``corrupt``
    write the full output with a garbage tail and exit *successfully*
    (silent corruption — only output validation can catch it);
``hang``
    stop making progress before the write (heartbeats cease; only the
    dispatcher's timeout/heartbeat supervision can recover).

The dispatcher resolves the plan per launch and hands each worker a single
directive: subprocess workers receive it via the ``REPRO_FAULT`` (singular)
environment variable and honor it inside ``repro study``'s output write;
in-process thread workers receive it as an argument, where "die" becomes
raising :class:`InjectedFault` and "hang" waits cooperatively on the
handle's kill event (an in-process worker must never ``os._exit`` the
dispatcher along with itself).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Tuple, Union

#: Environment variable a *worker* reads: one directive for one launch.
WORKER_ENV_VAR = "REPRO_FAULT"

#: The injectable fault kinds, in escalating order of subtlety.
FAULT_KINDS = ("crash", "torn", "corrupt", "hang")

#: Exit code of a worker that died on an injected (process-fatal) fault.
FAULT_EXIT_CODE = 70


class InjectedFault(RuntimeError):
    """Raised by an injected fault in an in-process (thread) worker."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: *kind* strikes *shard* on *attempt*.

    ``attempt`` is 1-based; ``None`` means every attempt (which exhausts
    the retry budget — the way to exercise the missing-shard path).
    """

    shard: int
    kind: str
    attempt: Optional[int] = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"choose from {', '.join(FAULT_KINDS)}")
        if self.shard < 1:
            raise ValueError(f"fault shard index is 1-based, got {self.shard}")
        if self.attempt is not None and self.attempt < 1:
            raise ValueError(
                f"fault attempt is 1-based, got {self.attempt}")

    def matches(self, shard: int, attempt: int) -> bool:
        """Whether this fault strikes the given launch."""
        return self.shard == shard and self.attempt in (None, attempt)

    def __str__(self) -> str:
        tail = "@*" if self.attempt is None else (
            "" if self.attempt == 1 else f"@{self.attempt}")
        return f"{self.shard}:{self.kind}{tail}"


class FaultPlan:
    """An ordered set of :class:`FaultSpec` resolved per launch.

    The text form is a comma list of ``SHARD:KIND[@ATTEMPT]`` items, e.g.
    ``"1:crash,2:hang@1,3:torn@2,4:corrupt@*"`` — ``@1`` is the default
    (fault the first attempt only, so the retry succeeds), ``@*`` faults
    every attempt.
    """

    def __init__(self, specs: Iterable[FaultSpec] = ()):
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``--inject`` text form."""
        specs = []
        for item in (text or "").split(","):
            item = item.strip()
            if not item:
                continue
            head, _, attempt_text = item.partition("@")
            shard_text, sep, kind = head.partition(":")
            try:
                if not sep:
                    raise ValueError
                shard = int(shard_text)
                attempt: Optional[int]
                if not attempt_text:
                    attempt = 1
                elif attempt_text == "*":
                    attempt = None
                else:
                    attempt = int(attempt_text)
            except ValueError:
                raise ValueError(
                    f"fault spec must look like 'SHARD:KIND[@ATTEMPT]' "
                    f"(e.g. '2:crash@1'), got {item!r}") from None
            specs.append(FaultSpec(shard=shard, kind=kind.strip(),
                                   attempt=attempt))
        return cls(specs)

    def fault_for(self, shard: int, attempt: int) -> Optional[str]:
        """The fault kind striking this launch, or ``None`` for a clean run."""
        for spec in self.specs:
            if spec.matches(shard, attempt):
                return spec.kind
        return None

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __str__(self) -> str:
        return ",".join(str(spec) for spec in self.specs)


def fault_from_env(environ=os.environ) -> Optional[str]:
    """The single worker directive in ``REPRO_FAULT``, validated.

    Injection is a test instrument — an unknown kind is a loud error, not
    something to shrug off and silently run clean.
    """
    kind = (environ.get(WORKER_ENV_VAR) or "").strip()
    if not kind:
        return None
    if kind not in FAULT_KINDS:
        raise ValueError(f"{WORKER_ENV_VAR}={kind!r} is not one of "
                         f"{', '.join(FAULT_KINDS)}")
    return kind


def write_study_output(path: Union[str, Path], text: str,
                       fault: Optional[str] = None,
                       cancel_event: Optional[threading.Event] = None,
                       hang_seconds: float = 3600.0) -> None:
    """Write a worker's study JSON to *path*, honoring an injected fault.

    With ``fault=None`` this is a plain write — the production path is
    byte-identical to what ``repro study --output`` always did.  With a
    fault, the worker misbehaves exactly as documented in the module
    docstring.  ``cancel_event`` selects thread mode: "die" raises
    :class:`InjectedFault` instead of ``os._exit``, and "hang" waits on the
    event so an abandoned in-process worker can be woken and reaped.
    """
    path = Path(path)
    if fault is None:
        path.write_text(text)
        return
    if fault == "crash":
        _die(cancel_event, "injected crash before write")
    elif fault == "hang":
        _hang(cancel_event, hang_seconds)
        raise InjectedFault("injected hang was cancelled")
    elif fault == "torn":
        torn = text[:max(1, len(text) // 2)]
        with open(path, "w") as handle:
            handle.write(torn)
            handle.flush()
            os.fsync(handle.fileno())
        _die(cancel_event, "injected crash mid-write (torn tail)")
    elif fault == "corrupt":
        tail = "##corrupted-by-injected-fault##"
        path.write_text(text[:-len(tail)] + tail)
        # Exit "successfully": silent corruption is exactly the failure
        # mode that only the dispatcher's output validation can catch.
    else:
        raise ValueError(f"unknown fault kind {fault!r}")


def _die(cancel_event: Optional[threading.Event], reason: str) -> None:
    """Process mode: hard-exit (no atexit, no flush — a real crash).
    Thread mode: raise, so only the worker dies, not the dispatcher."""
    if cancel_event is None:
        os._exit(FAULT_EXIT_CODE)
    raise InjectedFault(reason)


def _hang(cancel_event: Optional[threading.Event], seconds: float) -> None:
    """Stop making progress.  Process mode sleeps until the dispatcher's
    timeout/heartbeat supervision kills the worker; thread mode waits on
    the kill event so the dispatcher can reap the thread."""
    if cancel_event is None:
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline:     # pragma: no cover — killed
            time.sleep(0.2)
        os._exit(FAULT_EXIT_CODE)              # pragma: no cover
    cancel_event.wait(seconds)
