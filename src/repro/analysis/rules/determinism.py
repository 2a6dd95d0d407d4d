"""RL201/RL202 — determinism under the bit-identity contract.

The streaming refactor (PR 5) pinned three execution shapes of the monitor
to *bit-identical* outputs: chunked, whole-run, and fleet-batched. That
contract is what lets ``tests/test_streaming_equivalence.py`` compare
arrays with ``==`` instead of tolerances — and it is fragile in exactly
two ways this module polices:

* **GEMM-backed matrix products** (``@``, ``np.dot``, ``np.matmul``, and
  ``np.einsum(..., optimize=True)``) let BLAS choose its reduction
  blocking *per call shape*: a (256, k) chunk and an (n, k) whole trace
  sum the k-axis in different orders, so float results differ in the last
  ulp and the contract breaks. ``CompiledMLP`` runs its forwards through
  unoptimised fixed-order ``np.einsum`` for precisely this reason. RL201
  flags every matmul-family operation inside the contract modules; a
  deliberate exception (a one-shot compile-time constant fold) carries a
  reasoned suppression.
* **unordered iteration feeding numeric accumulation**: looping a ``set``
  (hash order) into ``+=``-style accumulation or ``list.append`` makes
  the reduction order depend on ``PYTHONHASHSEED``. RL202 flags it and
  asks for ``sorted(...)``.

The contract module list defaults to the packages the equivalence tests
pin and can be overridden per rule via ``[tool.repro-lint.rules.<name>]
modules = [...]``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..dataflow import NDARRAY, SET
from ..diagnostics import Diagnostic
from ..registry import Rule, RuleContext, register

#: Modules whose outputs the streaming-equivalence suite pins bit-identical
#: across chunked / whole-run / fleet-batched execution.
BIT_IDENTITY_MODULES = (
    "repro.perf",
    "repro.core",
    "repro.stream",
    "repro.monitor.pipeline",
    "repro.monitor.fleet",
)

_MATMUL_FUNCS = ("dot", "matmul", "inner", "vdot", "tensordot")


def _is_np(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


@register
class BitIdentityMatmulRule(Rule):
    id = "RL201"
    name = "bit-identity-matmul"
    description = (
        "No BLAS-order-dependent products (@ / np.dot / np.matmul / "
        "optimized einsum) in modules under the bit-identity contract; "
        "use fixed-order np.einsum."
    )

    def check(self, ctx: RuleContext) -> Iterator[Diagnostic]:
        modules = tuple(ctx.options.get("modules", BIT_IDENTITY_MODULES))
        if not ctx.in_packages(modules):
            return
        flow = ctx.flow()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                yield self.diagnostic(
                    ctx, node,
                    "'@' runs a BLAS GEMM whose reduction order depends on "
                    "the call shape; chunked and whole-run results differ in "
                    "the last ulp. Use fixed-order np.einsum (see "
                    "CompiledMLP).",
                )
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.MatMult):
                yield self.diagnostic(
                    ctx, node,
                    "'@=' matmul-assign is BLAS-order dependent under the "
                    "bit-identity contract; use fixed-order np.einsum.",
                )
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, flow, node)

    def _check_call(self, ctx, flow, node: ast.Call) -> Iterator[Diagnostic]:
        fn = node.func
        if not isinstance(fn, ast.Attribute):
            return
        if _is_np(fn.value) and fn.attr in _MATMUL_FUNCS:
            yield self.diagnostic(
                ctx, node,
                f"np.{fn.attr} dispatches to BLAS whose blocking varies with "
                "operand shape; under the bit-identity contract use "
                "fixed-order np.einsum.",
            )
            return
        if _is_np(fn.value) and fn.attr == "einsum":
            for kw in node.keywords:
                if kw.arg == "optimize" and not (
                    isinstance(kw.value, ast.Constant) and kw.value.value is False
                ):
                    yield self.diagnostic(
                        ctx, node,
                        "np.einsum(optimize=...) may reorder the contraction "
                        "per call shape, breaking chunked == whole-run "
                        "bit-identity; drop optimize (defaults to False).",
                    )
            return
        # ndarray.dot(...) method spelling.
        if fn.attr == "dot" and not _is_np(fn.value):
            scope = flow.scope_for(node)
            if scope.infer(fn.value).tag == NDARRAY:
                yield self.diagnostic(
                    ctx, node,
                    "ndarray.dot() is a BLAS GEMM; under the bit-identity "
                    "contract use fixed-order np.einsum.",
                )


@register
class UnorderedAccumulationRule(Rule):
    id = "RL202"
    name = "unordered-accumulation"
    description = (
        "No numeric accumulation over set-ordered iteration in bit-identity "
        "modules; hash order varies with PYTHONHASHSEED — iterate sorted()."
    )

    #: list/set mutators that make iteration order observable downstream.
    _ORDER_SINKS = ("append", "extend", "add")

    def check(self, ctx: RuleContext) -> Iterator[Diagnostic]:
        modules = tuple(ctx.options.get("modules", BIT_IDENTITY_MODULES))
        if not ctx.in_packages(modules):
            return
        flow = ctx.flow()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For):
                scope = flow.scope_for(node)
                if scope.infer(node.iter).tag != SET:
                    continue
                sink = self._accumulation_in(node)
                if sink is not None:
                    yield self.diagnostic(
                        ctx, node,
                        "iterating a set in hash order feeds the "
                        f"accumulation at line {sink.lineno}; the reduction "
                        "order then varies run to run — iterate "
                        "sorted(<set>) instead.",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_reduce_call(ctx, flow, node)

    def _accumulation_in(self, loop: ast.For) -> "ast.AST | None":
        for sub in ast.walk(loop):
            if sub is loop:
                continue
            if isinstance(sub, ast.AugAssign) and isinstance(
                sub.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)
            ):
                return sub
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in self._ORDER_SINKS
            ):
                return sub
        return None

    def _check_reduce_call(self, ctx, flow, node: ast.Call) -> Iterator[Diagnostic]:
        fn = node.func
        is_sum = isinstance(fn, ast.Name) and fn.id == "sum"
        is_np_sum = (
            isinstance(fn, ast.Attribute) and _is_np(fn.value) and fn.attr == "sum"
        )
        if not (is_sum or is_np_sum) or not node.args:
            return
        arg = node.args[0]
        scope = flow.scope_for(node)
        inner = arg.generators[0].iter if isinstance(
            arg, (ast.GeneratorExp, ast.ListComp)
        ) else arg
        if scope.infer(inner).tag == SET:
            yield self.diagnostic(
                ctx, node,
                "sum() over a set reduces in hash order, which varies with "
                "PYTHONHASHSEED; sum over sorted(<set>) for a fixed order.",
            )
