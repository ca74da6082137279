"""Command-line certificate suite for the Fano-plane algebra constructions.

Subcommands:
  verify    run a named check suite (or all of them); exit 0 iff all pass
  enumerate write enumerated objects as JSON lines
  table     print the octonion or bracket tables (text or JSON)
  diagram   emit the delta-star / delta colorings as DOT or text

Exit codes: 0 success, 1 failed check, 2 usage error.

A suite is a flat list of claims, one row each: the claim, its
description, its expected value, and the function of the module the claim
is about that computes the observed value.  _records calls each function in
turn and builds the check records.  The sweeps, and the values that
several claims read, are defined in those modules, once.

Each suite and each command target imports only the modules it calls, so a
command loads (and, without cached bytecode, compiles) only those layers;
scalars, and with it fractions, only where verify reads --field and where
the layers it runs need it.
"""

import argparse
import atexit
import gc
import json
import sys


def _records(rows):
    """The check record of each row (claim, description, expected, fn), in
    order; fn() is the observed value."""
    records = []
    for claim, description, expected, fn in rows:
        observed = fn()
        records.append(
            {
                "claim": claim,
                "description": description,
                "expected": expected,
                "observed": observed,
                "pass": expected == observed,
            }
        )
    return records


# ---------------------------------------------------------------------------
# suites; each lists its claims as rows (claim, description, expected, fn),
# fn a function of the suite's module, and returns their check records


def suite_fano():
    from . import fano

    return _records((
        ("AC1.size", "collineation group order", 168, fano.group_order),
        ("AC1.histogram", "element-order histogram",
         {1: 1, 2: 21, 3: 56, 4: 42, 7: 48}, fano.order_histogram),
        ("AC2.order7-split", "order-7 classes: two of 24, split by minimal polynomial and "
         "quadratic-residue powers",
         True, fano.order7_class_split),
        ("AC1.generators", "standard generators produce the whole group with ab the shift",
         (True, True, 168), fano.standard_generators_check),
    ))


def suite_compfactor():
    from . import compfactor

    return _records((
        ("AC3.count", "composition factors for the trivial norm", 16, compfactor.factor_count),
        ("AC3.orbits", "orbit sizes under the collineation group", [8, 8], compfactor.orbit_sizes),
        ("AC3.sides", "one orbit per side (future-line vs past-line)",
         [{"O+"}, {"O-"}], compfactor.orbit_sides),
        ("AC3.isotropy-order", "isotropy group order of the canonical factor",
         21, compfactor.isotropy_order),
        ("AC3.isotropy-normalizer", "isotropy equals the normalizer of the shift subgroup",
         True, compfactor.isotropy_is_shift_normalizer),
        ("AC3.oriented-maps", "oriented maps on the plane", 8, compfactor.oriented_map_count),
        ("AC3.exponentiation", "exponentiated oriented maps give one full side including the "
         "canonical factor",
         (8, {"O+"}, True), compfactor.exponentials_summary),
    ))


def suite_radon():
    from . import radon

    return _records((
        ("AC4.kernel", "kernel size of the transform", 8, radon.kernel_size),
        ("AC4.kernel-shape", "kernel is zero plus the seven off-line indicators",
         True, radon.kernel_is_off_line_indicators),
        ("AC4.image", "image size of the transform", 16, radon.image_size),
        ("AC4.image-membership", "image equals the pencil indicators, their complements, 0 and 1",
         True, radon.image_is_pencil_set),
        ("AC4.preimages", "every image point has eight preimages",
         True, radon.preimages_have_eight),
        ("AC4.mult-domain", "sign functions with total product +1", 64, radon.mult_domain_size),
        ("AC4.mult-image", "line sign functions with pencil products +1",
         8, radon.mult_image_agreement),
        ("AC4.mult-kernel", "kernel of the multiplicative transform", 8, radon.mult_kernel_size),
        ("AC4.concurrency", "sum over any concurrent line triple equals the total point sum",
         True, radon.concurrency_holds),
    ))


EXPECTED_TABLE = (
    (0, 4, 7, -2, 6, -5, -3),
    (-4, 0, 5, 1, -3, 7, -6),
    (-7, -5, 0, 6, 2, -4, 1),
    (2, -1, -6, 0, 7, 3, -5),
    (-6, 3, -2, -7, 0, 1, 4),
    (5, -7, 4, -3, -1, 0, 2),
    (3, 6, -1, 5, -4, -2, 0),
)


def suite_octonion():
    from . import octonion

    return _records((
        ("AC14.table", "imaginary multiplication table, cell for cell",
         EXPECTED_TABLE, octonion.table),
        ("AC14.norm-sampled", "norm multiplicativity: the polarized norm identity on all 4096 "
         "basis quadruples",
         True, octonion.norm_is_multiplicative),
        ("AC14.norm-structural", "norm multiplicativity equivalent to the line and quadrilateral "
         "sign rules on all 128 line orientations",
         True, octonion.norm_identity_matches_rules),
        ("AC14.alternative", "alternativity of the algebra", True, octonion.is_alternative),
        ("AC14.conjugation", "conjugation is an anti-automorphism",
         True, octonion.conjugation_is_antiautomorphism),
        ("AC14.quaternion", "line subalgebras associative on all basis triples",
         True, octonion.lines_are_associative),
        ("AC14.triangles", "non-aligned triples generate the full 8-dimensional algebra",
         True, octonion.triangles_generate_algebra),
        ("AC14.clifford", "squared left multiplication by an imaginary unit is minus the norm",
         True, octonion.clifford_identity),
    ))


def suite_lifting():
    from . import lifting

    return _records((
        ("AC5.classes", "distinct line-sign functions over the group",
         [21] * 8, lifting.class_sizes),
        ("AC5.identities", "determinant, pencil and multiplier identities",
         True, lifting.delta_star_properties),
        ("AC5.generator-a", "distinguished point of the order-2 generator",
         4, lifting.generator_a_point),
        ("AC5.generator-b", "distinguished point of the order-3 generator",
         3, lifting.generator_b_point),
        ("AC5.constant-class", "constant +1 class equals the isotropy of the factor",
         True, lifting.constant_class_is_isotropy),
        ("AC6.size", "augmented group order", 1344, lifting.aug_group_order),
        ("AC6.kernel", "kernel of the base projection", True, lifting.kernel_is_t_maps),
        ("AC6.fibers", "every base element has exactly eight lifts",
         True, lifting.fibers_have_eight),
        ("AC6.profile-2", "lift order profile over an order-2 base",
         (2, 2, 2, 2, 4, 4, 4, 4), lifting.order2_profile),
        ("AC6.profile-3", "lift order profile over an order-3 base",
         (3, 3, 3, 3, 6, 6, 6, 6), lifting.order3_profile),
        ("AC6.profile-7", "lift order profile over an order-7 base",
         (7,) * 8, lifting.order7_profile),
        ("AC6.profile-4", "lift order profile over an order-4 base (non-splitness witness)",
         (8,) * 8, lifting.order4_profile),
        ("AC6.ahat", "the explicit signed lift of the order-2 generator",
         True, lifting.ahat_is_a_lift),
        ("AC6.orientation-powers", "order-7 elements inducing the same line orientations",
         3, lifting.orientation_power_count),
    ))


def suite_g2(field):
    from . import g2

    return _records((
        ("AC7.dimension", "span of the 21 incidence generators", 14, g2.span_dimension),
        ("AC7.annihilator", "dimension of the unit annihilator in so(7)",
         14, g2.annihilator_dimension),
        ("AC7.point-relations", "the three generators at each point sum to zero",
         True, g2.point_relations_hold),
        ("AC8.bracket-law", "all 441 ordered pairs match the closed-form law via structure "
         "constants and spinor commutators",
         True, g2.check_bracket_law),
        ("AC8.anchors", "anchored bracket values", True, g2.anchored_brackets_hold),
        ("AC8.jacobi", "Jacobi identity on all basis triples", True, g2.jacobi_check),
        ("AC9.census", "incidence-orbit census",
         {"D": 21, "O1": 42, "O2": 42, "O3": 84, "O3'": 84, "O4": 168}, g2.orbit_census),
        ("AC9.closure", "orbit tags preserved by the standard generators",
         True, g2.orbit_tags_preserved),
        ("AC8.action", "incidence formula for the action on basis octonions matches the matrices "
         "(147 cases)",
         True, g2.action_formula_holds),
        ("AC10.welldefined", "point sign independent of the line for all 1344 elements",
         True, g2.delta_hat_welldefined),
        ("AC10.count", "distinct point-sign functions and their multiplicity",
         (64, {21}), g2.delta_hat_count),
        ("AC10.in-R", "every point-sign function has total product +1", True, g2.delta_hat_in_r),
        ("AC10.radon", "line transform of the point signs equals the base line signs",
         True, g2.delta_hat_radon),
        ("AC10.ahat", "positive points of the explicit order-2 lift",
         {1, 6, 7}, g2.delta_hat_ahat),
        ("AC11.cartan", "point subspaces: 2-dimensional, abelian, self-centralizing",
         True, g2.cartans_hold),
        ("AC11.decomposition", "orthogonal direct sum of the seven point subspaces with the "
         "additive bracket rule",
         True, g2.decomposition_check),
        ("AC11.lines", "line subalgebra structure for all seven lines",
         True, g2.line_subalgebras_hold),
        ("AC11.point-subalgebras", "annihilator subalgebras of each basis octonion close at "
         "dimension eight",
         True, g2.point_subalgebras_hold),
        ("AC11.chevalley", "rank-2 presentation over fields containing i, gated otherwise",
         (True, True, True), g2.chevalley_gates),
        ("AC11.almost-complex", "invariant almost-complex structure at each point",
         True, g2.almost_complex_structures_hold),
        ("AC11.pair-closures", "pair-generated closure dimensions per orbit (O4 closes on the "
         "bracket-law triple; the claimed full closure contradicts AC8)",
         ({3}, {3}), g2.pair_closure_dimensions),
        ("AC11.o3-example", "explicit skew-incident pair: 4-dimensional with central element and "
         "3-dimensional derived ideal",
         {"dimension": 4, "center_elt_in_algebra": True, "center_elt_central": True,
          "derived_ideal_matches": True, "derived_dimension": 3},
         g2.o3_example_report),
        ("AC11.triangle-generation", "the point subspaces of a non-aligned triple generate "
         "everything",
         14, g2.triangle_closure_dimension),
        # the one row that reads the suite's argument, the field --field parses to
        ("AC11.chevalley-field", "rank-2 presentation outcome over the selected coefficient field "
         "(relations hold when -1 is a square, ValueError otherwise)",
         (field.name, True), lambda: (field.name, g2.chevalley_gate(field))),
        ("AC12.roots", "twelve root vectors per point with squared lengths 2 and 6 and the "
         "standard closure pattern",
         True, g2.root_systems_hold),
    ))


def suite_forms():
    from . import forms

    return _records((
        ("AC13.terms", "term counts of the two invariant forms", (7, 7), forms.term_counts),
        ("AC13.derivations", "killed by the derivation action of all 21 generators",
         True, forms.derivation_kills_forms),
        ("AC13.uniqueness", "invariant 3-form space is one-dimensional",
         1, forms.invariant_three_form_dimension),
        ("AC13.bilinear", "double contraction identity with coefficient -6",
         True, forms.bilinear_identity_check),
        ("AC13.volume", "product of the two forms is -7 times the volume form",
         True, forms.volume_identity_check),
        ("AC13.norms", "norms of both forms under the orthonormal-subset convention",
         {"omega": 7, "Omega": 7}, forms.norm_report),
    ))


# the suites in the order `verify all` runs them; the benchmark's tracer
# rebinds the values of this table to time each suite
SUITES = {
    "fano": suite_fano,
    "compfactor": suite_compfactor,
    "radon": suite_radon,
    "octonion": suite_octonion,
    "lifting": suite_lifting,
    "g2": suite_g2,
    "forms": suite_forms,
}


def cmd_verify(opts):
    # main has parsed --field into opts.field, which only suite_g2 reads
    names = SUITES if opts.suite == "all" else (opts.suite,)
    report = {"suites": [], "pass": True}
    for name in names:
        checks = SUITES[name](opts.field) if name == "g2" else SUITES[name]()
        ok = all(c["pass"] for c in checks)
        report["suites"].append({"suite": name, "pass": ok, "checks": checks})
        if not ok:
            report["pass"] = False
    if opts.json:
        text = json.dumps(report, indent=2, default=_jsonable)
    else:
        lines = []
        total = 0
        for s in report["suites"]:
            lines.append(
                "suite %s: %s" % (s["suite"], "PASS" if s["pass"] else "FAIL")
            )
            for c in s["checks"]:
                total += 1
                lines.append(
                    "  [%s] %s: %s"
                    % ("ok" if c["pass"] else "FAIL", c["claim"], c["description"])
                )
                if not c["pass"]:
                    lines.append("      expected: %r" % (c["expected"],))
                    lines.append("      observed: %r" % (c["observed"],))
        lines.append(
            "%d checks, overall %s"
            % (total, "PASS" if report["pass"] else "FAIL")
        )
        text = "\n".join(lines)
    _emit(text, opts)
    return 0 if report["pass"] else 1


def _jsonable(v):
    if isinstance(v, (set, frozenset)):
        return sorted(v, key=repr)
    return repr(v)


def cmd_enumerate(opts):
    if opts.target == "aut":
        from . import fano

        records = [
            {
                "perm": fano.serialize(g_),
                "order": fano.order(g_),
                "lines": [fano.line_name(d) for d in fano.line_perm(g_)],
            }
            for g_ in fano.all_collineations()
        ]
    elif opts.target == "aug-aut":
        from . import lifting

        records = []
        for aug in lifting.enumerate_aug_group():
            perm, mask = lifting.aug_serialize(aug)
            records.append({"perm": perm, "sign_mask": mask, "order": lifting.aug_order(aug)})
    elif opts.target == "comp-factors":
        from . import compfactor

        orbit_of = {}
        for n, o in enumerate(compfactor.orbit_decomposition()):
            for f in o:
                orbit_of[f] = n
        records = [
            {"table": compfactor.serialize(f), "side": compfactor.side(f), "orbit": orbit_of[f]}
            for f in compfactor.enumerate_composition_factors()
        ]
    else:
        from . import compfactor

        maps = compfactor.enumerate_oriented_maps()
        tables = compfactor.exponentiate(maps)
        if compfactor.rules_hold(tables) != (1 << len(tables)) - 1:
            sys.stderr.write("error: exponentiation candidate failed the composition rules\n")
            return 1
        records = [
            {"dual_masks": list(alpha), "factor": compfactor.serialize(eps)}
            for alpha, eps in zip(maps, tables)
        ]
    _emit("\n".join(json.dumps(r, sort_keys=True) for r in records), opts)
    return 0


def cmd_table(opts):
    if opts.target == "octonion":
        from . import octonion

        text = octonion.table_json() if opts.json else octonion.table_text()
    else:
        from . import g2

        text = g2.bracket_table_json() if opts.json else g2.bracket_table_text()
    _emit(text, opts)
    return 0


def cmd_diagram(opts):
    from . import compfactor, lifting, radon

    # on a sign table that is no composition factor the line signs fall
    # outside R* and the group is not the 1344 lifts: neither coloring exists
    if not compfactor.is_composition_factor(compfactor.EPS_TAU):
        sys.stderr.write("error: the sign table EPS_TAU is not a composition factor\n")
        return 1
    if opts.target == "delta-star":
        try:
            text = (
                lifting.delta_star_diagram_dot()
                if opts.format == "dot"
                else lifting.delta_star_diagram_text()
            )
        except ValueError as exc:
            # a line sign outside R* has no distinguished point
            sys.stderr.write("error: %s\n" % exc)
            return 1
    else:
        # the 64 point-sign colorings over the augmented group; a delta that
        # fails its checks is reported as a failed check
        from . import g2

        fns, error = g2.delta_hats()
        if error:
            sys.stderr.write("error: %s\n" % error)
            return 1
        # in the order of the sign tuples
        fns = sorted(set(fns.values()), key=lifting.SIGNS.__getitem__)
        if opts.format == "dot":
            text = "\n".join(
                radon.incidence_dot("delta_%d" % idx, [], radon.sign_attrs(fn), ["shape=box"] * 7)
                for idx, fn in enumerate(fns)
            )
        else:
            text = "\n".join(" ".join(radon.sign_labels(fn, "P")) for fn in fns)
    _emit(text, opts)
    return 0


class UsageError(Exception):
    """Bad command-line input; main reports it on one line and exits 2."""


def _emit(text, opts):
    if opts.out is not None:
        try:
            with open(opts.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError("cannot write --out %s: %s" % (opts.out, exc.strerror))
    else:
        sys.stdout.write(text + "\n")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fanog2", description="Certificate suite for Fano-plane algebras."
    )
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--out", help="write output to a file")
        p.add_argument("--cache-dir", help="accepted for compatibility; has no effect")

    pv = sub.add_parser("verify", help="run a check suite")
    pv.add_argument("suite", choices=("all",) + tuple(SUITES))
    pv.add_argument("--json", action="store_true", help="JSON output")
    common(pv)
    pv.add_argument(
        "--field",
        default="q",
        help="coefficient field descriptor: q, qi or fp:<p>",
    )

    pe = sub.add_parser("enumerate", help="enumerate objects as JSON lines")
    pe.add_argument(
        "target", choices=("aut", "aug-aut", "comp-factors", "oriented-maps")
    )
    common(pe)

    pt = sub.add_parser("table", help="print a multiplication or bracket table")
    pt.add_argument("target", choices=("octonion", "brackets"))
    pt.add_argument("--json", action="store_true", help="JSON output")
    common(pt)

    pd = sub.add_parser("diagram", help="emit sign colorings as DOT or text")
    pd.add_argument("target", choices=("delta-star", "delta"))
    pd.add_argument("--format", choices=("dot", "text"), default="text")
    common(pd)

    return parser


# whether main has registered gc.freeze to run at exit in this process
_freeze_at_exit = False


def main(argv=None):
    """Run the command that argv (default: sys.argv[1:]) names and return
    its exit code: 0 success, 1 a failed check, 2 a usage error.  An
    argument that argparse rejects raises SystemExit, as argparse does.

    A command is a one-shot run: the tables the claims build live until the
    process exits, and nothing they allocate needs the cycle collector to
    free it.  So the collector is off while the command runs; whatever
    state the caller had is restored on every way out, including an
    exception.  The first call in a process also registers gc.freeze to run
    at exit, so interpreter shutdown skips that heap instead of traversing
    it.  Importing this module does neither.
    """
    global _freeze_at_exit
    if not _freeze_at_exit:
        atexit.register(gc.freeze)
        _freeze_at_exit = True
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv):
    parser = build_parser()
    opts = parser.parse_args(argv)
    if opts.command is None:
        parser.print_usage(sys.stderr)
        return 2
    commands = {
        "verify": cmd_verify,
        "enumerate": cmd_enumerate,
        "table": cmd_table,
        "diagram": cmd_diagram,
    }
    if opts.command == "verify":
        from .scalars import field_from_descriptor

        try:
            opts.field = field_from_descriptor(opts.field)
        except ValueError as exc:
            sys.stderr.write("error: %s\n" % exc)
            return 2
    try:
        return commands[opts.command](opts)
    except UsageError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
