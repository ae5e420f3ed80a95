"""The linear delta-plan IR.

A compiled plan is a topologically ordered list of instructions over a
flat register file.  Each instruction computes one ``(operator, mode)``
node of the algebra DAG and writes its table into its destination
register; operands name the registers holding the already-computed
inputs.  The same operator appearing under several modes (a join's Δ
pass next to its FULL side) occupies distinct registers.  At run time a
register is filled from the run memo when an earlier instruction — of
this plan or, inside one registry dispatch, of another view's — already
computed the same ``(structural signature, mode)`` node.

Opcodes name the operator family plus the execution mode so a listing
reads like a program (``NAV_UNNEST.d r3 <- r2``).  Per-instruction
counters (executions, memo reuses, rows in/out, Δ rows, short-circuits)
accumulate on the instruction and feed ``EXPLAIN``'s listing section.
"""

from __future__ import annotations

from ..xat.base import DELTA, op_stat_keys, op_stats

#: operator class name -> opcode mnemonic
_OPCODES = {
    "Source": "SOURCE",
    "NavigateUnnest": "NAV_UNNEST",
    "NavigateCollection": "NAV_COLLECT",
    "Select": "SELECT",
    "Rename": "RENAME",
    "Join": "JOIN",
    "LeftOuterJoin": "LOJOIN",
    "CartesianProduct": "PRODUCT",
    "Distinct": "DISTINCT",
    "OrderBy": "ORDER_BY",
    "GroupBy": "GROUP_BY",
    "Aggregate": "AGGREGATE",
    "TupleFunction": "FUNCTION",
    "Combine": "COMBINE",
    "Tagger": "TAGGER",
    "XmlUnion": "UNION",
    "XmlUnique": "UNIQUE",
    "Merge": "MERGE",
    "VariableBinding": "BIND",
    "Map": "MAP",
    "Expose": "EXPOSE",
}

#: mode -> mnemonic suffix ("full" stays bare; Δ is marked)
_MODE_SUFFIX = {"full": "", "delta": ".d"}


def opcode_for(op, mode: str) -> str:
    """The instruction mnemonic for one ``(operator, mode)`` node."""
    base = _OPCODES.get(type(op).__name__, "EVAL")
    return base + _MODE_SUFFIX.get(mode, "." + mode)


class Instruction:
    """One step of a compiled plan: ``dest <- opcode(srcs)``.

    ``xop`` is the XAT operator instance whose
    :meth:`~repro.xat.base.XatOperator.compute` the instruction runs and
    ``mode`` the execution mode it runs under.  ``prepared`` carries the
    signature-keyed metadata (the subtree's source-document set) shared
    across structurally-equal subplans, and ``key`` — ``(signature,
    mode)``, built once here — is the instruction's slot in the run memo.
    """

    __slots__ = ("opcode", "dest", "srcs", "xop", "mode", "prepared", "key",
                 "frees", "op_stats", "runs_stat", "out_stat",
                 "executed", "reused", "shortcircuits", "rows_in",
                 "rows_out")

    def __init__(self, opcode: str, dest: int, srcs: tuple, xop, mode: str,
                 prepared):
        self.opcode = opcode
        self.dest = dest
        self.srcs = srcs
        self.xop = xop
        self.mode = mode
        self.prepared = prepared
        self.key = (prepared.signature, mode)
        # registers a FULL run over a private memo drops after this one
        self.frees: tuple = ()
        # the operator's live counters (``obs_op_stats``) and the two of
        # them this instruction's executions advance
        self.op_stats = op_stats(xop)
        self.runs_stat, self.out_stat = op_stat_keys(mode)
        # -- live counters (rendered by the EXPLAIN listing) --
        self.executed = 0
        self.reused = 0     # register filled from the run memo instead
        self.shortcircuits = 0
        self.rows_in = 0
        self.rows_out = 0

    def render(self) -> str:
        srcs = ", ".join(f"r{s}" for s in self.srcs) or "-"
        text = (f"r{self.dest:<3} <- {self.opcode:<13} {srcs:<12}"
                f" runs={self.executed}"
                + (f" reuse={self.reused}" if self.reused else "")
                + f" in={self.rows_in} out={self.rows_out}")
        if self.mode == DELTA:
            text += f" Δ={self.rows_out}"
        if self.shortcircuits:
            text += f" skip={self.shortcircuits}"
        return text


class CompiledPlan:
    """A lowered plan: instructions in dependency order plus metadata.

    ``signature`` is the root operator's structural signature (shared
    with :mod:`repro.engine.opstate`), which keys the plan cache and the
    cross-view sharing of compile artifacts.  ``root`` is the register
    holding the final result.  ``live`` (FULL plans only) is the most
    registers alive at once when each is dropped after its last reader.
    """

    __slots__ = ("instructions", "nregs", "root", "mode", "signature",
                 "compile_seconds", "shared_prefix_instructions", "live")

    def __init__(self, instructions: list, nregs: int, root: int,
                 mode: str, signature, compile_seconds: float = 0.0,
                 shared_prefix_instructions: int = 0):
        self.instructions = instructions
        self.nregs = nregs
        self.root = root
        self.mode = mode
        self.signature = signature
        self.compile_seconds = compile_seconds
        self.shared_prefix_instructions = shared_prefix_instructions
        self.live = None

    def __len__(self) -> int:
        return len(self.instructions)

    def listing(self) -> str:
        """The rendered instruction listing (one line per instruction)."""
        head = (f"compiled plan [{self.mode}]"
                f" {len(self.instructions)} instructions,"
                f" {self.nregs} registers, root=r{self.root}")
        if self.live is not None:
            head += f", live≤{self.live}"
        if self.shared_prefix_instructions:
            head += (f", shared-prefix="
                     f"{self.shared_prefix_instructions}")
        return "\n".join([head] + ["  " + instr.render()
                                   for instr in self.instructions])
