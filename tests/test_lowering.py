"""Semantic lowering tests: the five semantic equations (section 4.1)."""

import pytest

from repro import nir
from repro.frontend.parser import parse_program
from repro.lowering import (
    CheckError,
    LoweringError,
    check_program,
    lower_program,
)
from repro.lowering.environment import build_environment

from .conftest import lower


def inner_moves(lowered):
    body = lowered.inner_body()
    if isinstance(body, nir.Sequentially):
        return [a for a in body.actions if isinstance(a, nir.Move)]
    return [body] if isinstance(body, nir.Move) else []


class TestEnvironment:
    def test_domains_get_greek_names(self):
        lowered = lower("INTEGER K(128,64), L(128)\nL = 6\nK = 5\nEND")
        assert set(lowered.domains) == {"alpha", "beta"}
        assert nir.extents(lowered.domains["alpha"]) == (128, 64)
        assert nir.extents(lowered.domains["beta"]) == (128,)

    def test_same_extents_share_domain(self):
        lowered = lower(
            "integer, array(8,8) :: a, b\na = 1\nb = 2\nend")
        assert len(lowered.domains) == 1

    def test_parameter_folding(self):
        lowered = lower("integer, parameter :: n = 4*16\n"
                        "integer, array(n) :: a\na = 0\nend")
        assert nir.extents(lowered.domains["alpha"]) == (64,)

    def test_parameter_depends_on_parameter(self):
        env = build_environment(parse_program(
            "integer, parameter :: n = 8\n"
            "integer, parameter :: m = n * 2\nend"))
        assert env.params["m"] == 16

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(LoweringError, match="duplicate"):
            lower("integer x\nreal x\nend")

    def test_nonconstant_extent_rejected(self):
        with pytest.raises(LoweringError, match="constant"):
            lower("integer n\ninteger a(n)\nend")

    def test_undeclared_identifier(self):
        with pytest.raises(LoweringError, match="undeclared"):
            lower("x = 1\nend")

    def test_scalar_initializer(self):
        lowered = lower("double precision :: t = 1.5\nend")
        decls = nir.bindings(lowered.env.nir_declarations())
        assert ("t", nir.FLOAT_64) in decls


class TestWholeArrayLowering:
    def test_figure8_shape(self):
        lowered = lower("INTEGER K(128,64), L(128)\nL = 6\nK = 2*K+5\nEND")
        text = nir.pretty(lowered.nir)
        assert "WITH_DOMAIN(('alpha'" in text
        assert "AVAR('l', everywhere)" in text
        assert "BINARY(Mul, SCALAR(integer_32,'2'), "\
            "AVAR('k', everywhere))" in text

    def test_scalar_assignment_is_svar_move(self):
        lowered = lower("integer x\nx = 3\nend")
        (move,) = inner_moves(lowered)
        assert isinstance(move.clauses[0].tgt, nir.SVar)

    def test_section_assignment_subscript(self):
        lowered = lower("INTEGER L(128)\nL(32:64) = 0\nEND")
        (move,) = inner_moves(lowered)
        tgt = move.clauses[0].tgt
        assert isinstance(tgt.field, nir.Subscript)
        assert isinstance(tgt.field.indices[0], nir.IndexRange)

    def test_full_colon_canonicalizes_to_everywhere(self):
        lowered = lower("INTEGER K(8,8)\nK(:,:) = 1\nEND")
        (move,) = inner_moves(lowered)
        assert isinstance(move.clauses[0].tgt.field, nir.Everywhere)

    def test_parameter_substituted_as_constant(self):
        lowered = lower("integer, parameter :: c = 5\ninteger x\n"
                        "x = c + 1\nend")
        (move,) = inner_moves(lowered)
        assert nir.int_const(5) in list(nir.values.walk(
            move.clauses[0].src))

    def test_assignment_to_parameter_rejected(self):
        with pytest.raises(LoweringError, match="PARAMETER"):
            lower("integer, parameter :: n = 4\nn = 5\nend")


class TestForallLowering:
    def test_figure7_form(self):
        lowered = lower("INTEGER, ARRAY(32,32) :: A\n"
                        "FORALL (i=1:32, j=1:32) A(i,j) = i+j\nEND")
        (move,) = inner_moves(lowered)
        clause = move.clauses[0]
        assert isinstance(clause.tgt.field, nir.Everywhere)
        lus = nir.collect(clause.src, nir.LocalUnder)
        assert {lu.dim for lu in lus} == {1, 2}
        assert all(lu.shape == nir.DomainRef("alpha") for lu in lus)

    def test_partial_region_keeps_subscript(self):
        lowered = lower("integer, array(32) :: a\n"
                        "forall (i=2:31) a(i) = i\nend")
        (move,) = inner_moves(lowered)
        assert isinstance(move.clauses[0].tgt.field, nir.Subscript)

    def test_permuted_triplets(self):
        lowered = lower("integer, array(8,4) :: a\n"
                        "forall (j=1:4, i=1:8) a(i,j) = i*10 + j\nend")
        (move,) = inner_moves(lowered)
        lus = {lu.dim for lu in nir.collect(move.clauses[0].src,
                                            nir.LocalUnder)}
        assert lus == {1, 2}

    def test_pinned_scalar_axis(self):
        lowered = lower(
            "integer, array(8,8) :: a\ninteger i\n"
            "do 1 i=1,8\nforall (j=1:8) a(i,j) = j\n1 continue\nend")
        assert lowered is not None  # lowers without error

    def test_duplicate_triplet_var_rejected(self):
        with pytest.raises(LoweringError):
            lower("integer, array(4,4) :: a\n"
                  "forall (i=1:4) a(i,i) = 1\nend")

    def test_unused_triplet_var_rejected(self):
        with pytest.raises(LoweringError, match="unused"):
            lower("integer, array(4) :: a\n"
                  "forall (i=1:4, j=1:4) a(i) = 1\nend")


class TestControlFlowLowering:
    def test_do_becomes_serial_shape(self):
        lowered = lower("integer a(8)\ninteger i\n"
                        "do 1 i=1,8\na(i) = i*i\n1 continue\nend")
        body = lowered.inner_body()
        assert isinstance(body, nir.Do)
        assert isinstance(body.shape, nir.SerialInterval)
        assert body.index_names == ("i",)

    def test_do_with_step(self):
        lowered = lower("integer a(9)\ninteger i\n"
                        "do i=1,9,3\na(i) = 1\nend do\nend")
        assert lowered.inner_body().shape.stride == 3

    def test_nonconstant_bounds_become_while(self):
        lowered = lower("integer a(8)\ninteger i, n\nn = 8\n"
                        "do i=1,n\na(i) = 1\nend do\nend")
        whiles = [x for x in nir.imperatives.walk(lowered.inner_body())
                  if isinstance(x, nir.While)]
        assert len(whiles) == 1

    def test_do_while_lowering(self):
        lowered = lower("integer x\nx = 0\n"
                        "do while (x < 5)\nx = x + 1\nend do\nend")
        whiles = [n for n in nir.imperatives.walk(lowered.inner_body())
                  if isinstance(n, nir.While)]
        assert len(whiles) == 1

    def test_if_chain_lowering(self):
        lowered = lower(
            "integer x\nx = 1\nif (x > 2) then\nx = 3\n"
            "else if (x > 0) then\nx = 4\nelse\nx = 5\nendif\nend")
        ifs = [n for n in nir.imperatives.walk(lowered.inner_body())
               if isinstance(n, nir.IfThenElse)]
        assert len(ifs) == 2  # chain of two

    def test_array_condition_rejected(self):
        with pytest.raises((nir.ShapeError, CheckError)):
            lower("integer a(4)\nif (a > 2) then\na = 1\nendif\nend")

    def test_print_becomes_call(self):
        lowered = lower("integer x\nx = 1\nprint *, x\nend")
        calls = [n for n in nir.imperatives.walk(lowered.inner_body())
                 if isinstance(n, nir.CallStmt)]
        assert calls and calls[0].name == "print"


class TestWhereLowering:
    def test_where_masks(self):
        lowered = lower("integer a(8), b(8)\n"
                        "where (b > 0)\na = 1\nelsewhere\na = 2\n"
                        "end where\nend")
        moves = inner_moves(lowered)
        assert len(moves) == 2
        assert not moves[0].clauses[0].is_unconditional
        assert isinstance(moves[1].clauses[0].mask, nir.Unary)

    def test_self_modifying_where_materializes_mask(self):
        lowered = lower("integer a(8)\n"
                        "where (a > 0)\na = a - 1\nelsewhere\na = 9\n"
                        "end where\nend")
        moves = inner_moves(lowered)
        # Mask hoist + two masked moves.
        assert len(moves) == 3
        assert isinstance(moves[1].clauses[0].mask, nir.AVar)

    def test_scalar_mask_rejected(self):
        with pytest.raises((nir.TypeError_, CheckError)):
            lower("integer a(4)\ninteger x\nx = 1\n"
                  "where (x > 0) a = 1\nend")


class TestIntrinsicLowering:
    def test_cshift_normalized_args(self):
        lowered = lower("integer v(8), z(8)\n"
                        "z = cshift(v, dim=1, shift=-1)\nend")
        (move,) = inner_moves(lowered)
        call = move.clauses[0].src
        assert call.name == "cshift"
        assert call.args[1] == nir.int_const(-1)
        assert call.args[2] == nir.int_const(1)

    def test_cshift_default_dim(self):
        lowered = lower("integer v(8), z(8)\nz = cshift(v, 2)\nend")
        (move,) = inner_moves(lowered)
        assert move.clauses[0].src.args[2] == nir.int_const(1)

    def test_sum_reduction(self):
        lowered = lower("integer a(8)\ninteger s\na = 1\ns = sum(a)\nend")
        moves = inner_moves(lowered)
        assert moves[-1].clauses[0].src.name == "sum"

    def test_elemental_unary(self):
        lowered = lower("double precision x\nx = sin(1.0d0)\nend")
        (move,) = inner_moves(lowered)
        assert isinstance(move.clauses[0].src, nir.Unary)
        assert move.clauses[0].src.op is nir.UnOp.SIN

    def test_min_multiarg_folds_left(self):
        lowered = lower("integer x\nx = min(1, 2, 3)\nend")
        (move,) = inner_moves(lowered)
        src = move.clauses[0].src
        assert isinstance(src, nir.Binary) and src.op is nir.BinOp.MIN
        assert isinstance(src.left, nir.Binary)

    def test_size_inquiry_folds(self):
        lowered = lower("integer a(6,7)\ninteger n\nn = size(a)\nend")
        (move,) = inner_moves(lowered)
        assert move.clauses[0].src == nir.int_const(42)

    def test_merge_stays_elemental(self):
        lowered = lower("integer a(4), b(4), c(4)\n"
                        "c = merge(a, b, a > b)\nend")
        (move,) = inner_moves(lowered)
        assert move.clauses[0].src.name == "merge"

    def test_unknown_function_rejected(self):
        with pytest.raises(LoweringError, match="unknown"):
            lower("integer x\nx = frobnicate(1)\nend")


class TestShapeChecking:
    def test_conforming_ok(self):
        lower("integer a(8), b(8)\na = b + 1\nend")

    def test_nonconforming_rejected(self):
        with pytest.raises((nir.ShapeError, CheckError)):
            lower("integer a(8), b(9)\na = b\nend")

    def test_section_conformance(self):
        lower("integer a(10)\na(1:5) = a(6:10)\nend")

    def test_section_mismatch_rejected(self):
        with pytest.raises((nir.ShapeError, CheckError)):
            lower("integer a(10)\na(1:5) = a(6:9)\nend")

    def test_array_to_scalar_rejected(self):
        with pytest.raises((nir.ShapeError, CheckError)):
            lower("integer a(4)\ninteger x\nx = a\nend")

    def test_scalar_broadcast_ok(self):
        lower("integer a(4)\ninteger x\nx = 2\na = x\nend")

    def test_rank_mismatch_subscripts(self):
        with pytest.raises(nir.ShapeError):
            lower("integer a(4,4)\na(1) = 0\nend")

    def test_checker_runs_on_lowered_program(self):
        lowered = lower_program(parse_program(
            "integer a(4)\na = 1\nend"))
        check_program(lowered.nir, lowered.env)


class TestIntrinsicArgumentErrors:
    """Arity and keyword errors in intrinsic calls are located
    LoweringErrors on every surface, never a raw ValueError."""

    SOURCE = ("program p\ndouble precision a(4)\na = 1.0d0\n"
              "a = cshift(a, 1, shift=2)\nend program p\n")

    @pytest.mark.parametrize("call, message", [
        ("cshift(a, 1, shift=2)", "duplicate argument 'shift'"),
        ("cshift(a, 1, 1, 1)", "too many arguments"),
        ("cshift(a, 1, axis=1)", "unknown keyword 'axis'"),
        ("cshift(dim=1)", "missing required argument"),
        ("merge(a, a, tsource=a)", "duplicate argument .tsource."),
    ])
    def test_compile_source_raises_located_lowering_error(self, call,
                                                          message):
        from repro import compile_source

        source = self.SOURCE.replace("cshift(a, 1, shift=2)", call)
        with pytest.raises(LoweringError, match=message) as info:
            compile_source(source, cache=False, incremental=False)
        assert info.value.source_loc.line == 4

    def test_reduction_keyword_error(self):
        with pytest.raises(LoweringError, match="duplicate argument 'dim'"):
            lower("double precision a(4), s\ns = sum(a, 1, dim=1)\nend")

    def test_cli_reports_a_typed_error(self, tmp_path, capsys):
        from repro.driver import cli

        path = tmp_path / "bad.f90"
        path.write_text(self.SOURCE)
        assert cli.main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "LoweringError: cshift: duplicate argument 'shift'" in err
        assert "ValueError" not in err

    def test_service_returns_a_structured_error(self):
        from repro.service.jobs import execute_request

        response = execute_request({"op": "run", "source": self.SOURCE},
                                   None)
        assert not response["ok"]
        assert response["error"] == {
            "type": "LoweringError",
            "message": "cshift: duplicate argument 'shift'"}
