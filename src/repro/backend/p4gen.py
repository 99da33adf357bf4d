"""P4_16 code generation for the Intel Tofino (Section 6).

The generator consumes a :class:`~repro.backend.layout.PipelineLayout` and
emits a Tofino-style P4_16 program with the same structural components the
paper's Figure 10 breaks down:

* ``headers``   — Ethernet, the Lucid event header (event id, delay, location)
  and one header per declared event carrying its payload;
* ``parsers``   — a parser that recognises Lucid event packets and extracts
  the payload of the event they carry;
* ``registers`` — one ``Register`` per global array plus one ``RegisterAction``
  per memory-operation table (the stateful-ALU programs);
* ``actions``   — one action per atomic table;
* ``tables``    — one match-action table per *merged* table, with static
  entries implementing the members' path conditions (Figure 8), plus the
  event dispatcher and serializer of the event scheduler (Section 3.2);
* ``control``   — the ingress/egress apply blocks.

Two generation styles are supported:

* ``style="lucid"`` (default): the output of the optimising compiler;
* ``style="naive"``: the hand-written-style baseline used for the LoC
  comparison — one table and one action per atomic operation, no merging,
  and register actions duplicated at every use site, which is how the paper
  describes hand-written P4 (register actions "are not reusable ... the
  programmer must manually copy the code every time").
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.backend.layout import PipelineLayout
from repro.backend.tables import AtomicTable, TableKind
from repro.frontend import ast
from repro.frontend.memop_check import MemopShape
from repro.frontend.symbols import ProgramInfo
from repro.midend.normalize import (
    Const,
    NArrayOp,
    NCopy,
    NGenerate,
    NHash,
    NOp,
    NPrim,
    Operand,
    Var,
    array_call,
)
from repro.ops import BINOPS, OpKind, p4_spelling
from repro.records import field, record


@record
class P4Program:
    """Generated P4 split into the sections counted by Figure 10."""

    name: str
    sections: Dict[str, str] = field(default_factory=dict)

    SECTION_ORDER = [
        "preamble",
        "headers",
        "parsers",
        "registers",
        "actions",
        "tables",
        "control",
        "deparser",
    ]

    def full_text(self) -> str:
        parts = []
        for section in self.SECTION_ORDER:
            text = self.sections.get(section, "")
            if text:
                parts.append(f"// ---- {section} ----")
                parts.append(text)
        return "\n".join(parts) + "\n"

    def line_counts(self) -> Dict[str, int]:
        """Non-blank line count per section (plus a total)."""
        counts: Dict[str, int] = {}
        for section, text in self.sections.items():
            counts[section] = sum(1 for line in text.splitlines() if line.strip())
        counts["total"] = sum(counts.values())
        return counts


def _operand(op: Operand, local_prefix: str = "md.") -> str:
    if isinstance(op, Const):
        return str(op.value)
    return f"{local_prefix}{_sanitize(op.name)}"


def _binary(op: ast.BinOp, left: str, right: str) -> str:
    """``left op right`` in P4.  A shift keeps its amount's low five bits, as
    every engine and constant folding do (P4-16 shifts a ``bit<32>`` by 32
    or more to 0): a literal amount is masked here, any other in the P4."""
    if op in (ast.BinOp.SHL, ast.BinOp.SHR):
        right = str(int(right) & 31) if right.isdigit() else f"({right} & 31)"
    return f"{left} {p4_spelling(op)} {right}"


def _sanitize(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


# ---------------------------------------------------------------------------
# section generators
# ---------------------------------------------------------------------------
def _gen_headers(info: ProgramInfo) -> str:
    lines: List[str] = []
    lines.append("header ethernet_t {")
    lines.append("    bit<48> dst_addr;")
    lines.append("    bit<48> src_addr;")
    lines.append("    bit<16> ether_type;")
    lines.append("}")
    lines.append("header lucid_event_t {")
    lines.append("    bit<16> event_id;")
    lines.append("    bit<32> event_delay;")
    lines.append("    bit<32> event_loc;")
    lines.append("    bit<16> mcast_group;")
    lines.append("    bit<8>  next_header;")
    lines.append("}")
    for event_id, event in enumerate(info.events.values(), start=1):
        lines.append(f"// event {event.name} (id {event_id})")
        lines.append(f"header ev_{event.name}_t {{")
        if not event.params:
            lines.append("    bit<8> pad;")
        for param in event.params:
            lines.append(f"    bit<32> {param.name};")
        lines.append("}")
    lines.append("struct headers_t {")
    lines.append("    ethernet_t ethernet;")
    lines.append("    lucid_event_t lucid;")
    for event in info.events.values():
        lines.append(f"    ev_{event.name}_t ev_{event.name};")
    lines.append("}")
    lines.append("struct metadata_t {")
    lines.append("    bit<32> self_loc;")
    lines.append("    bit<32> timestamp;")
    lines.append("    bit<16> out_event_id;")
    lines.append("    bit<9>  egress_port;")
    lines.append("    bit<1>  do_recirculate;")
    lines.append("}")
    return "\n".join(lines)


def _gen_parser(info: ProgramInfo) -> str:
    lines: List[str] = []
    lines.append("parser LucidParser(packet_in pkt, out headers_t hdr,")
    lines.append("                   out metadata_t md, out ingress_intrinsic_metadata_t ig) {")
    lines.append("    state start {")
    lines.append("        pkt.extract(ig);")
    lines.append("        pkt.advance(PORT_METADATA_SIZE);")
    lines.append("        transition parse_ethernet;")
    lines.append("    }")
    lines.append("    state parse_ethernet {")
    lines.append("        pkt.extract(hdr.ethernet);")
    lines.append("        transition select(hdr.ethernet.ether_type) {")
    lines.append("            LUCID_ETHERTYPE : parse_lucid;")
    lines.append("            default         : accept;")
    lines.append("        }")
    lines.append("    }")
    lines.append("    state parse_lucid {")
    lines.append("        pkt.extract(hdr.lucid);")
    lines.append("        transition select(hdr.lucid.event_id) {")
    for event_id, event in enumerate(info.events.values(), start=1):
        lines.append(f"            {event_id} : parse_ev_{event.name};")
    lines.append("            default : accept;")
    lines.append("        }")
    lines.append("    }")
    for event in info.events.values():
        lines.append(f"    state parse_ev_{event.name} {{")
        lines.append(f"        pkt.extract(hdr.ev_{event.name});")
        lines.append("        transition accept;")
        lines.append("    }")
    lines.append("}")
    return "\n".join(lines)


def _salu_binary(op: ast.BinOp, left: str, right: str) -> str:
    """:func:`_binary` inside a memop, where a comparison's side may itself
    be an operation (it has a space): P4, like C, binds ``&``, ``|`` and
    ``^`` looser than a comparison, and Lucid binds them tighter."""
    if BINOPS[op].kind is OpKind.COMPARISON:
        left, right = (f"({side})" if " " in side else side for side in (left, right))
    return _binary(op, left, right)


def _salu_assign(target: str, memop: Optional[MemopShape], arg: Operand,
                 plain: str) -> List[str]:
    """``target = memop(mem, arg)`` as RegisterAction statements; ``plain``
    is what ``target`` takes when there is no memop."""
    if memop is None:
        return [f"            {target} = {plain};"]
    cond, value, orelse = memop.render(_salu_binary, "mem", _operand(arg))
    if cond is None:
        return [f"            {target} = {value};"]
    return [
        f"            if ({cond}) {{",
        f"                {target} = {value};",
        "            } else {",
        f"                {target} = {orelse};",
        "            }",
    ]


def _gen_registers(
    info: ProgramInfo, memory_tables: List[AtomicTable], naive: bool
) -> str:
    lines: List[str] = []
    for g in info.globals.values():
        lines.append(
            f"Register<bit<{g.cell_width}>, bit<32>>({g.size}) reg_{g.name};"
        )
    # RegisterActions: one per memory table (the compiler reuses memops, the
    # naive style re-declares an action at every use site anyway, which is
    # what both styles structurally require in P4).  ``rv`` is assigned
    # first, so both sides read the cell's old value, as one sALU does.
    for table in memory_tables:
        stmt = table.stmt
        assert isinstance(stmt, NArrayOp)
        g = info.globals[stmt.array]
        call = array_call(info, stmt)
        lines.append(
            f"RegisterAction<bit<{g.cell_width}>, bit<32>, bit<{g.cell_width}>>(reg_{g.name})"
        )
        lines.append(f"    ra_{_sanitize(table.name)} = {{")
        lines.append(f"        void apply(inout bit<{g.cell_width}> mem, out bit<{g.cell_width}> rv) {{")
        if call.reads:
            lines.extend(_salu_assign("rv", call.get_memop, call.get_arg, "mem"))
        if call.writes:
            lines.extend(_salu_assign("mem", call.set_memop, call.set_arg,
                                      _operand(call.set_arg)))
        lines.append("        }")
        lines.append("    };")
    return "\n".join(lines)


def _action_body(table: AtomicTable) -> List[str]:
    stmt = table.stmt
    lines: List[str] = []
    if isinstance(stmt, NOp):
        lines.append(
            f"        md.{_sanitize(stmt.dst)} = "
            f"{_binary(stmt.op, _operand(stmt.lhs), _operand(stmt.rhs))};"
        )
    elif isinstance(stmt, NCopy):
        lines.append(f"        md.{_sanitize(stmt.dst)} = {_operand(stmt.src)};")
    elif isinstance(stmt, NHash):
        args = ", ".join(_operand(a) for a in stmt.args)
        lines.append(f"        md.{_sanitize(stmt.dst)} = hash_{stmt.width}.get({{ {args} }});")
    elif isinstance(stmt, NArrayOp):
        call = f"ra_{_sanitize(table.name)}.execute((bit<32>){_operand(stmt.index)})"
        if stmt.dst:
            lines.append(f"        md.{_sanitize(stmt.dst)} = {call};")
        else:
            lines.append(f"        {call};")
    elif isinstance(stmt, NGenerate):
        lines.append(f"        md.out_event_id = EV_{stmt.event.upper()};")
        lines.append(f"        hdr.ev_{stmt.event}.setValid();")
        for i, arg in enumerate(stmt.args):
            lines.append(f"        hdr.ev_{stmt.event}.arg{i} = {_operand(arg)};")
        lines.append(f"        hdr.lucid.event_delay = {_operand(stmt.delay)};")
        lines.append(f"        hdr.lucid.event_loc = {_operand(stmt.location)};")
        lines.append("        md.do_recirculate = 1;")
    elif isinstance(stmt, NPrim):
        if stmt.prim == "drop":
            lines.append("        ig_dprsr_md.drop_ctl = 1;")
        elif stmt.prim == "forward":
            lines.append(f"        ig_tm_md.ucast_egress_port = (bit<9>){_operand(stmt.args[0])};")
        elif stmt.prim == "flood":
            lines.append("        ig_tm_md.mcast_grp_a = FLOOD_GROUP;")
        else:
            lines.append(f"        // primitive {stmt.prim}")
    else:
        lines.append("        // no-op")
    return lines


def _gen_actions(tables: List[AtomicTable]) -> str:
    lines: List[str] = []
    for table in tables:
        lines.append(f"action do_{_sanitize(table.name)}() {{")
        lines.extend(_action_body(table))
        lines.append("}")
        lines.append("action noop_{0}() {{ }}".format(_sanitize(table.name)))
    return "\n".join(lines)


def _gen_dispatcher(info: ProgramInfo) -> List[str]:
    lines: List[str] = []
    lines.append("// Lucid event scheduler: dispatcher (Section 3.2)")
    lines.append("action dispatch_handle() { }")
    lines.append("action dispatch_forward(bit<9> port) { ig_tm_md.ucast_egress_port = port; }")
    lines.append("action dispatch_multicast(bit<16> grp) { ig_tm_md.mcast_grp_a = grp; }")
    lines.append("action dispatch_delay() { ig_tm_md.qid = DELAY_QID; md.do_recirculate = 1; }")
    lines.append("table event_dispatcher {")
    lines.append("    key = {")
    lines.append("        hdr.lucid.event_id    : exact;")
    lines.append("        hdr.lucid.event_loc   : ternary;")
    lines.append("        hdr.lucid.event_delay : ternary;")
    lines.append("    }")
    lines.append("    actions = { dispatch_handle; dispatch_forward; dispatch_multicast; dispatch_delay; }")
    lines.append("    const default_action = dispatch_handle;")
    lines.append(f"    size = {max(16, 4 * max(1, len(info.events)))};")
    lines.append("}")
    lines.append("// Lucid event scheduler: egress serializer")
    lines.append("table event_serializer {")
    lines.append("    key = { eg_intr_md.egress_rid : exact; }")
    lines.append("    actions = { strip_other_events; }")
    lines.append("    const default_action = strip_other_events;")
    lines.append("}")
    lines.append("action strip_other_events() { }")
    return lines


def _gen_tables_merged(layout: PipelineLayout, info: ProgramInfo) -> str:
    lines: List[str] = []
    lines.extend(_gen_dispatcher(info))
    event_ids = {name: i for i, name in enumerate(info.events, start=1)}
    for stage in layout.stages:
        for merged in stage.merged_tables:
            lines.append(f"// stage {stage.index}")
            lines.append(f"table {merged.name} {{")
            lines.append("    key = {")
            lines.append("        hdr.lucid.event_id : ternary;")
            for key in merged.match_keys():
                if key == "event_id":
                    continue
                lines.append(f"        md.{_sanitize(key)} : ternary;")
            lines.append("    }")
            lines.append("    actions = {")
            for member in merged.members:
                lines.append(f"        do_{_sanitize(member.name)};")
                lines.append(f"        noop_{_sanitize(member.name)};")
            lines.append("    }")
            lines.append("    const entries = {")
            for member in merged.members:
                event_id = event_ids.get(member.handler, 0)
                conds = " && ".join(c.show() for c in member.path_conditions) or "always"
                lines.append(
                    f"        // {member.handler}: {conds}"
                )
                lines.append(
                    f"        ({event_id}, _) : do_{_sanitize(member.name)}();"
                )
            lines.append("    }")
            lines.append(f"    size = {max(2, merged.rule_count())};")
            lines.append("}")
    return "\n".join(lines)


def _gen_tables_naive(tables: List[AtomicTable], info: ProgramInfo) -> str:
    lines: List[str] = []
    lines.extend(_gen_dispatcher(info))
    event_ids = {name: i for i, name in enumerate(info.events, start=1)}
    for table in tables:
        lines.append(f"table tbl_{_sanitize(table.name)} {{")
        lines.append("    key = {")
        lines.append("        hdr.lucid.event_id : ternary;")
        for cond in table.path_conditions:
            for op in (cond.lhs, cond.rhs):
                if isinstance(op, Var):
                    lines.append(f"        md.{_sanitize(op.name)} : ternary;")
        lines.append("    }")
        lines.append("    actions = {")
        lines.append(f"        do_{_sanitize(table.name)};")
        lines.append(f"        noop_{_sanitize(table.name)};")
        lines.append("    }")
        event_id = event_ids.get(table.handler, 0)
        lines.append("    const entries = {")
        conds = " && ".join(c.show() for c in table.path_conditions) or "always"
        lines.append(f"        // {table.handler}: {conds}")
        lines.append(f"        ({event_id}, _) : do_{_sanitize(table.name)}();")
        lines.append("    }")
        lines.append("    size = 2;")
        lines.append("}")
    return "\n".join(lines)


def _gen_control(layout: PipelineLayout, naive: bool, tables: List[AtomicTable]) -> str:
    lines: List[str] = []
    lines.append("control LucidIngress(inout headers_t hdr, inout metadata_t md,")
    lines.append("                     in ingress_intrinsic_metadata_t ig_intr_md,")
    lines.append("                     inout ingress_intrinsic_metadata_for_tm_t ig_tm_md,")
    lines.append("                     inout ingress_intrinsic_metadata_for_deparser_t ig_dprsr_md) {")
    lines.append("    apply {")
    lines.append("        event_dispatcher.apply();")
    if naive:
        for table in tables:
            lines.append(f"        tbl_{_sanitize(table.name)}.apply();")
    else:
        for stage in layout.stages:
            if not stage.merged_tables:
                continue
            lines.append(f"        // ---- pipeline stage {stage.index} ----")
            for merged in stage.merged_tables:
                lines.append(f"        {merged.name}.apply();")
    lines.append("        if (md.do_recirculate == 1) {")
    lines.append("            ig_tm_md.ucast_egress_port = RECIRC_PORT;")
    lines.append("        }")
    lines.append("    }")
    lines.append("}")
    lines.append("control LucidEgress(inout headers_t hdr, inout metadata_t md,")
    lines.append("                    in egress_intrinsic_metadata_t eg_intr_md) {")
    lines.append("    apply {")
    lines.append("        // event serialization: keep only the event selected by the clone id")
    lines.append("        event_serializer.apply();")
    lines.append("        // delay queue: update remaining delay from queue residence time")
    lines.append("        if (hdr.lucid.isValid() && hdr.lucid.event_delay > 0) {")
    lines.append("            hdr.lucid.event_delay = hdr.lucid.event_delay |-| eg_intr_md.deq_timedelta;")
    lines.append("        }")
    lines.append("    }")
    lines.append("}")
    return "\n".join(lines)


def _gen_deparser(info: ProgramInfo) -> str:
    lines: List[str] = []
    lines.append("control LucidDeparser(packet_out pkt, inout headers_t hdr) {")
    lines.append("    apply {")
    lines.append("        pkt.emit(hdr.ethernet);")
    lines.append("        pkt.emit(hdr.lucid);")
    for event in info.events.values():
        lines.append(f"        pkt.emit(hdr.ev_{event.name});")
    lines.append("    }")
    lines.append("}")
    return "\n".join(lines)


def _gen_preamble(info: ProgramInfo, layout: PipelineLayout) -> str:
    lines: List[str] = []
    lines.append("#include <core.p4>")
    lines.append("#include <tna.p4>")
    lines.append(f"// generated by the Lucid reproduction compiler from '{info.program.name}'")
    lines.append("#define LUCID_ETHERTYPE 0x88B5")
    lines.append("#define RECIRC_PORT 196")
    lines.append("#define DELAY_QID 7")
    lines.append("#define FLOOD_GROUP 1")
    for i, event in enumerate(info.events, start=1):
        lines.append(f"#define EV_{event.upper()} {i}")
    for name, value in info.consts.values.items():
        lines.append(f"#define {name.upper()} {value}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def generate_p4(
    info: ProgramInfo, layout: PipelineLayout, style: str = "lucid"
) -> P4Program:
    """Emit a P4 program for ``layout``.

    ``style`` is ``"lucid"`` for the optimising compiler's output or
    ``"naive"`` for the hand-written-style baseline.
    """
    naive = style == "naive"
    all_tables = [t for stage in layout.stages for m in stage.merged_tables for t in m.members]
    memory_tables = [t for t in all_tables if t.kind is TableKind.MEMORY]
    program = P4Program(name=f"{info.program.name}.{style}")
    program.sections["preamble"] = _gen_preamble(info, layout)
    program.sections["headers"] = _gen_headers(info)
    program.sections["parsers"] = _gen_parser(info)
    program.sections["registers"] = _gen_registers(info, memory_tables, naive)
    program.sections["actions"] = _gen_actions(all_tables)
    if naive:
        program.sections["tables"] = _gen_tables_naive(all_tables, info)
    else:
        program.sections["tables"] = _gen_tables_merged(layout, info)
    program.sections["control"] = _gen_control(layout, naive, all_tables)
    program.sections["deparser"] = _gen_deparser(info)
    return program
