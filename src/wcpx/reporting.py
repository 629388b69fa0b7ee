"""Structured pass/fail reports with witnesses and stable serialization.

Every verification in the package emits CheckRecords; a record's ``check``
id maps through the ANCHORS table to the human name of the condition being
tested.  Reports serialize to JSON with sorted keys so identical inputs
always produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .linmaps import LinMap, first_difference

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"

#: check id -> the condition it verifies.  One entry per check id; the CLI
#: refuses to emit a record whose id is missing here.
ANCHORS = {
    # algebra / coalgebra / bialgebra / Hopf axioms
    "algebra.unit_left": "left unit law",
    "algebra.unit_right": "right unit law",
    "algebra.assoc": "associativity of the product",
    "coalgebra.counit_left": "left counit law",
    "coalgebra.counit_right": "right counit law",
    "coalgebra.coassoc": "coassociativity of the coproduct",
    "bialgebra.comul_mult": "coproduct is multiplicative",
    "bialgebra.counit_mult": "counit is multiplicative",
    "bialgebra.comul_unit": "coproduct preserves the unit",
    "bialgebra.counit_unit": "counit preserves the unit",
    "hopf.antipode_left": "left antipode identity",
    "hopf.antipode_right": "right antipode identity",
    # weak crossed products
    "wcp.compat": "twisting map compatible with the product",
    "wcp.nabla_idempotent": "induced projector is idempotent",
    "wcp.nabla_left_linear": "induced projector is left linear",
    "wcp.nabla_nonzero": "induced projector is nonzero",
    "wcp.twisted": "twisted condition",
    "wcp.cocycle": "cocycle condition",
    "wcp.sigma_normalized": "cocycle map fixed by the projector",
    "wcp.product_assoc": "crossed product on the tensor space is associative",
    "wcp.product_norm_left": "projector absorbs into the product on the left",
    "wcp.product_norm_right": "product vanishes on the projector complement",
    "wcp.restricted_assoc": "restricted product is associative",
    "wcp.splitting_section": "projection retracts the injection",
    "wcp.splitting_factors": "injection and projection factor the projector",
    "wcp.preunit_switch": "preunit acts equally on both sides",
    "wcp.preunit_square": "preunit absorbs its own square",
    "wcp.pre1": "preunit compatibility with twisting and cocycle",
    "wcp.pre2": "preunit compatibility with the cocycle",
    "wcp.pre3": "preunit compatibility with the twisting map",
    "wcp.preunit_projector": "preunit projector equals the induced projector",
    "wcp.unit_left": "restricted unit is a left unit",
    "wcp.unit_right": "restricted unit is a right unit",
    "wcp.embedding_mult": "base embedding is multiplicative",
    "wcp.embedding_unital": "base embedding preserves the unit",
    "wcp.base_map_mult": "base comparison map is multiplicative",
    "wcp.base_map_left_linear": "base comparison map is left linear",
    # twisted partial actions
    "partial.identity": "unit of the acting algebra acts as the identity",
    "partial.mult_composite": "action is partially multiplicative (composite form)",
    "partial.mult": "action is partially multiplicative",
    "partial.mult_forms_agree": "both multiplicativity forms agree",
    "partial.twist_composite": "partial twisted condition (composite form)",
    "partial.twist": "partial twisted condition",
    "partial.twist_forms_agree": "both partial twisted forms agree",
    "partial.cocycle_absorb_composite": "cocycle absorbed by the action (composite form)",
    "partial.cocycle_absorb": "cocycle absorbed by the action",
    "partial.cocycle_absorb_forms_agree": "both cocycle absorption forms agree",
    "partial.unit_right": "cocycle trivial on the right unit",
    "partial.unit_left": "cocycle trivial on the left unit",
    "partial.cocycle_composite": "partial cocycle condition (composite form)",
    "partial.cocycle": "partial cocycle condition",
    "partial.cocycle_forms_agree": "both partial cocycle forms agree",
    "partial.lemma_psi_comul": "induced twisting map respects the coproduct",
    "partial.lemma_sigma_comul": "induced cocycle map respects the coproduct",
    "partial.lemma_psi_counit": "action recovered from the induced twisting map",
    "partial.lemma_sigma_counit": "cocycle recovered from the induced cocycle map",
    "partial.nabla_unit_form": "projector matches its unit-condition form",
    "partial.product_oracle": "categorical product matches the elementwise product",
    "partial.thm_twisted_equiv": "partial twisted condition equivalent to the twisted condition",
    "partial.thm_cocycle_equiv": "partial cocycle condition equivalent to the cocycle condition",
    # extending data / unified products
    "unified.h_coassoc": "coassociativity of the extending object's coproduct",
    "unified.h_counit_left": "left counit law for the extending object",
    "unified.h_counit_right": "right counit law for the extending object",
    "unified.h_comul_unit": "extending coproduct preserves the unit",
    "unified.h_unit_left": "extending product has a left unit",
    "unified.h_unit_right": "extending product has a right unit",
    "unified.phi_h_comul": "right action respects the coproducts",
    "unified.phi_h_counit": "right action respects the counits",
    "unified.phi_a_comul": "left action respects the coproducts",
    "unified.phi_a_counit": "left action respects the counits",
    "unified.tau_comul": "pairing respects the coproducts",
    "unified.tau_counit": "pairing respects the counits",
    "unified.norm_action_unit": "left action is trivial on the base unit",
    "unified.norm_action_identity": "unit of the extending object acts as the identity",
    "unified.norm_module_counit": "right action is trivial under the extending unit",
    "unified.norm_module_identity": "base unit acts trivially on the right",
    "unified.norm_pairing_right": "pairing trivial on the right unit",
    "unified.norm_pairing_left": "pairing trivial on the left unit",
    "unified.be1": "extension condition BE1 (pairing-twisted associativity)",
    "unified.be2": "extension condition BE2 (left action is partially multiplicative)",
    "unified.be3": "extension condition BE3 (right action twisted over products)",
    "unified.be4": "extension condition BE4 (unified twisted condition)",
    "unified.be5": "extension condition BE5 (unified cocycle condition)",
    "unified.be6": "extension condition BE6 (actions commute under the swap)",
    "unified.be7": "extension condition BE7 (pairing commutes under the swap)",
    "unified.h_comul_mult": "extending coproduct is multiplicative",
    "unified.h_counit_mult": "extending counit is multiplicative",
    "unified.module_unit": "right action restricts the base unit to the identity",
    "unified.module_assoc": "right action is a module action",
    "unified.lemma_psi_right_comul": "induced twisting map respects the right coproduct",
    "unified.lemma_psi_left_comul": "induced twisting map respects the left coproduct",
    "unified.lemma_sigma_left_comul": "induced cocycle map respects the left coproduct",
    "unified.lemma_psi_counit": "left action recovered from the induced twisting map",
    "unified.lemma_psi_counit_left": "right action recovered from the induced twisting map",
    "unified.lemma_sigma_counit_left": "extending product recovered from the induced cocycle map",
    "unified.lemma_sigma_right_comul": "induced cocycle map respects the right coproduct",
    "unified.lemma_tau_counit": "pairing recovered from the induced cocycle map",
    "unified.lemma_swap_psi": "swap identity for the induced twisting map",
    "unified.lemma_swap_sigma": "swap identity for the induced cocycle map",
    "unified.nabla_identity": "induced projector is the identity",
    "unified.bullet_oracle": "categorical product matches the elementwise bullet product",
    "unified.unit_left": "tensor unit is a left unit for the unified product",
    "unified.unit_right": "tensor unit is a right unit for the unified product",
    "unified.thm_twisted_forward": "twisted condition forces the unified twisted condition",
    "unified.thm_twisted_backward": "unified twisted condition forces the twisted condition",
    "unified.thm_cocycle_forward": "cocycle condition forces the unified cocycle condition",
    "unified.thm_cocycle_backward": "unified cocycle condition forces the cocycle condition",
}


class UnknownCheckError(KeyError):
    pass


def anchor_for(check_id: str) -> str:
    try:
        return ANCHORS[check_id]
    except KeyError as exc:
        raise UnknownCheckError(f"check id {check_id!r} has no anchor") from exc


@dataclass(frozen=True)
class Witness:
    """One basis position at which two sides of an equality differ.

    Indices are 0-based multi-indices over the source and target factors;
    ``row``/``col`` are the corresponding flat matrix coordinates.
    """

    row: int
    col: int
    source_index: tuple[int, ...]
    target_index: tuple[int, ...]
    left: str
    right: str


@dataclass(frozen=True)
class CheckRecord:
    check: str
    anchor: str
    status: str
    subject: str = ""
    witness: Witness | None = None
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.status == PASS

    @property
    def failed(self) -> bool:
        return self.status == FAIL


@dataclass
class Report:
    """An ordered collection of check records plus free-form numeric facts."""

    records: list[CheckRecord] = field(default_factory=list)
    facts: dict[str, object] = field(default_factory=dict)

    def add(self, record: CheckRecord) -> CheckRecord:
        self.records.append(record)
        return record

    def extend(self, other: "Report") -> "Report":
        self.records.extend(other.records)
        self.facts.update(other.facts)
        return self

    def __getitem__(self, check_id: str) -> CheckRecord:
        for record in self.records:
            if record.check == check_id:
                return record
        raise KeyError(check_id)

    def status(self, check_id: str) -> str:
        return self[check_id].status

    @property
    def passed(self) -> bool:
        return all(r.status != FAIL for r in self.records)

    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if r.status == FAIL]

    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0}
        for r in self.records:
            out[r.status] = out.get(r.status, 0) + 1
        if out.get(SKIPPED) == 0:
            out.pop(SKIPPED, None)
        return out


def equality_record(check_id: str, lhs: LinMap, rhs: LinMap, subject: str = "") -> CheckRecord:
    """Compare two maps exactly; on failure carry the first differing position."""
    anchor = anchor_for(check_id)
    if lhs.source.total != rhs.source.total or lhs.target.total != rhs.target.total:
        return CheckRecord(check_id, anchor, FAIL, subject=subject,
                           note=f"shape mismatch: {lhs.source}->{lhs.target} "
                                f"vs {rhs.source}->{rhs.target}")
    diff = first_difference(lhs, rhs)
    if diff is None:
        return CheckRecord(check_id, anchor, PASS, subject=subject)
    witness = Witness(
        row=diff.row,
        col=diff.col,
        source_index=lhs.source.unflatten(diff.col),
        target_index=lhs.target.unflatten(diff.row),
        left=lhs.field.format(diff.left),
        right=lhs.field.format(diff.right),
    )
    return CheckRecord(check_id, anchor, FAIL, subject=subject, witness=witness)


def predicate_record(check_id: str, ok: bool, subject: str = "", note: str = "") -> CheckRecord:
    return CheckRecord(check_id, anchor_for(check_id), PASS if ok else FAIL,
                       subject=subject, note=note)


def skipped_record(check_id: str, subject: str = "", note: str = "") -> CheckRecord:
    return CheckRecord(check_id, anchor_for(check_id), SKIPPED, subject=subject, note=note)


def _witness_json(w: Witness) -> dict:
    # 1-based indices in serialized output, matching the structure-file format
    return {
        "col": w.col + 1,
        "row": w.row + 1,
        "source_index": [i + 1 for i in w.source_index],
        "target_index": [i + 1 for i in w.target_index],
        "left": w.left,
        "right": w.right,
    }


def emit(report: Report, version: str, input_digest: str) -> bytes:
    """Serialize a report to deterministic JSON bytes (sorted keys)."""
    checks = []
    for r in report.records:
        item: dict[str, object] = {"anchor": r.anchor, "check": r.check, "status": r.status}
        if r.subject:
            item["subject"] = r.subject
        if r.witness is not None:
            item["witness"] = _witness_json(r.witness)
        if r.note:
            item["note"] = r.note
        checks.append(item)
    doc: dict[str, object] = {
        "version": version,
        "input_digest": input_digest,
        "checks": checks,
        "summary": report.counts(),
    }
    if report.facts:
        doc["facts"] = report.facts
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def format_record(record: CheckRecord) -> str:
    """One human-readable line per check, plus a witness line on failure."""
    head = f"{record.status:<7} {record.check:<34} {record.anchor}"
    if record.subject:
        head = f"{record.status:<7} [{record.subject}] {record.check:<34} {record.anchor}"
    lines = [head]
    if record.witness is not None:
        w = record.witness
        src = ",".join(str(i + 1) for i in w.source_index) or "K"
        tgt = ",".join(str(i + 1) for i in w.target_index) or "K"
        lines.append(f"        witness: source ({src}) target ({tgt}) "
                     f"left={w.left} right={w.right}")
    if record.note:
        lines.append(f"        note: {record.note}")
    return "\n".join(lines)
