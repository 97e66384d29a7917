#!/usr/bin/env python3
"""memdb-analyzer: AST/call-graph invariant checking for the memorydb tree.

Function- and call-graph-level analysis rather than per-line regexes. Two
interchangeable frontends produce the same function IR:

  * clang   — libclang via python `clang.cindex`, when importable and a
              libclang shared object can be loaded (accurate name
              resolution). Any frontend failure falls back to textual with
              a notice, so the gate never breaks on a half-installed clang.
  * textual — a self-contained tokenizer + scope tracker (pure python, no
              dependencies). Precise enough for this codebase's Google-style
              C++; the golden fixtures pin its behaviour.

Checks (each finding prints `path:line: [check] message`):

  blocking-loop        A blocking primitive (sleep_for/sleep_until, fsync/
                       fdatasync, ::connect, CondVar/SyncSlot Wait/WaitFor)
                       called directly from a function defined in loop-owned
                       code (src/net, src/rpc, src/replication, src/chaos,
                       src/shard, txlog service/remote_client,
                       storage/fs_object_store).
  blocking-transitive  Same, but reached through the call graph: a loop-owned
                       function calls a helper (anywhere in src/) that
                       transitively blocks. The path is printed.
  lock-order           Cycle in the acquired-while-held graph built from
                       memdb::MutexLock scopes, explicit Lock()/Unlock(),
                       and REQUIRES() annotations, propagated through the
                       call graph. Reviewed orderings live in the whitelist
                       (tools/lock_order.allow).
  status-discard       A call whose result (memdb::Status / Result<T>) is
                       dropped on the floor: a bare expression-statement, or
                       a (void) cast without a reason annotation.
  rpc-deadline         An rpc::Channel::Call site whose deadline argument is
                       the literal 0 ("no deadline"): every internal RPC must
                       carry an explicit caller budget.
  ok-return            Config-driven pairing rule: in the named method, every
                       `return Status::OK()` must be preceded by a call to
                       the named must-call function (the startup checks
                       in RemoteLogGate / RespServer).
  raw-sync             File rule: no raw std:: mutex/lock/condvar types
                       outside src/common/sync.h.
  memory-order         File rule: every std::atomic .load()/.store()
                       spells an explicit std::memory_order.
  trace-lock-free      File rule: common/trace.{h,cc} stay lock-free.

Escape hatches (all read from raw source, same-line or two lines above):
  lint:allow-blocking -- <reason>   suppress a blocking site, or stop the
                                    transitive walk at an annotated call.
  lint:off-loop -- <reason>         this function never runs on an event
                                    loop (Start/Stop/ctor/sync wrappers);
                                    placed on/above the definition line.
  lint:allow-discard -- <reason>    this (void)-cast Status discard is
                                    deliberate and reviewed.

Exit status: 0 clean, 1 findings, 2 usage error, 4 requested frontend
unavailable (only with an explicit --frontend clang).
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# --------------------------------------------------------------------------
# Configuration. The defaults describe the real tree; fixtures pass --config
# with a JSON object overriding any subset of these keys (paths relative to
# the analysis root).
# --------------------------------------------------------------------------

DEFAULT_CONFIG = {
    "roots": ["src"],
    # src/client and src/loadgen are deliberately NOT loop-owned: both are
    # client-side blocking-socket code on plain worker threads (the cluster
    # client, the load generator) and never run on an event loop.
    "loop_owned_dirs": [
        "src/net", "src/rpc", "src/replication", "src/chaos", "src/shard",
    ],
    "loop_owned_globs": [
        ["src/txlog", "service.*"],
        ["src/txlog", "remote_client.*"],
        ["src/txlog", "log_client.*"],
        ["src/storage", "fs_object_store.*"],
    ],
    "sync_exempt": ["src/common/sync.h", "src/common/sync.cc"],
    "trace_lock_free": ["src/common/trace.h", "src/common/trace.cc"],
    "lock_order_allow": "tools/lock_order.allow",
    # Pairing rules: in Class::Method, `return Status::OK()` requires a
    # preceding call to `must_call` in the same function body. These encode
    # the §4.1/§4.2 startup contracts: a gate that reports success without
    # spinning up its loop (held replies would queue forever), or a server
    # that reports success before its election made it the primary (a
    # failover primary must not serve before it holds the shard), has
    # silently skipped its fencing obligation.
    "ok_return_rules": [
        {"class": "RemoteLogGate", "method": "Start", "must_call": "Start"},
        {"class": "RespServer", "method": "Start", "must_call": "AwaitPrimary"},
    ],
}

ALLOW_BLOCKING = "lint:allow-blocking"
ALLOW_DISCARD = "lint:allow-discard"
OFF_LOOP = "lint:off-loop"

CXX_SUFFIXES = {".h", ".hpp", ".cc", ".cpp", ".cxx"}

# --------------------------------------------------------------------------
# Comment/string stripping: blank out comment bodies and string literals,
# preserving the line structure so every reported line number stays
# accurate.
# --------------------------------------------------------------------------


def strip_comments_keep_lines(text: str) -> str:
    out = []
    i, n = 0, len(text)
    state = "code"
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if ch == "/" and nxt == "/":
                state, i = "line_comment", i + 2
                out.append("  ")
                continue
            if ch == "/" and nxt == "*":
                state, i = "block_comment", i + 2
                out.append("  ")
                continue
            if ch == '"':
                state = "string"
            elif ch == "'":
                state = "char"
            out.append(ch)
        elif state == "line_comment":
            if ch == "\n":
                state = "code"
            out.append(ch if ch == "\n" else " ")
        elif state == "block_comment":
            if ch == "*" and nxt == "/":
                state, i = "code", i + 2
                out.append("  ")
                continue
            out.append(ch if ch == "\n" else " ")
        elif state == "string":
            if ch == "\\":
                out.append("  ")
                i += 2
                continue
            if ch == '"':
                state = "code"
            out.append(ch if ch in ('"', "\n") else " ")
        elif state == "char":
            if ch == "\\":
                out.append("  ")
                i += 2
                continue
            if ch == "'":
                state = "code"
            out.append(ch if ch in ("'", "\n") else " ")
        i += 1
    return "".join(out)


# --------------------------------------------------------------------------
# Lexer (textual frontend).
# --------------------------------------------------------------------------

TOKEN_RE = re.compile(
    r"[A-Za-z_]\w*"
    r"|::|->|\+\+|--|&&|\|\||==|!=|<=|>=|<<|>>|\.\.\."
    r"|\d[\w'.]*"
    r"|[^\sA-Za-z_0-9]"
)


@dataclass
class Tok:
    __slots__ = ("text", "line")
    text: str
    line: int


def lex(code: str) -> list[Tok]:
    toks = []
    line = 1
    last = 0
    for m in TOKEN_RE.finditer(code):
        line += code.count("\n", last, m.start())
        last = m.start()
        toks.append(Tok(m.group(), line))
    return toks


# --------------------------------------------------------------------------
# Frontend-neutral IR.
# --------------------------------------------------------------------------


@dataclass
class CallSite:
    name: str                 # terminal identifier, e.g. "Call", "fsync"
    line: int
    qual: tuple = ()          # explicit A::B:: qualifier chain, if any
    is_member: bool = False   # preceded by `.` or `->`
    receiver: str = ""        # single-token receiver text ("" if complex)
    colon_prefix: bool = False  # `::name(` — global-qualified
    args: tuple = ()          # top-level argument texts
    held: tuple = ()          # canonical locks held at this site
    detached: bool = False    # inside a std::thread construction statement
    stmt_head: bool = False   # the statement starts with this call chain
    ends_stmt: bool = False   # `)` is immediately followed by `;`
    void_cast: bool = False   # statement begins with a (void) cast


@dataclass
class LockEdge:
    held: str
    acquired: str
    line: int


@dataclass
class FunctionInfo:
    name: str
    cls: str                  # enclosing (or declarator-qualified) class
    ns: str
    file: Path
    line: int
    returns_status: bool = False
    requires: tuple = ()      # canonical locks from REQUIRES()
    calls: list = field(default_factory=list)
    acquired: set = field(default_factory=set)   # canonical locks, direct
    lock_edges: list = field(default_factory=list)
    ok_returns: list = field(default_factory=list)  # lines of return Status::OK()
    off_loop: bool = False

    @property
    def qual(self) -> str:
        parts = [p for p in (self.ns, self.cls, self.name) if p]
        return "::".join(parts)

    @property
    def key(self) -> str:
        return f"{self.cls}::{self.name}" if self.cls else self.name


@dataclass
class FileIR:
    path: Path
    raw_lines: list
    code: str                 # stripped text (for file-level rules)
    functions: list = field(default_factory=list)
    allow_blocking: set = field(default_factory=set)   # line numbers
    allow_discard: set = field(default_factory=set)
    off_loop_lines: set = field(default_factory=set)

    def annotated(self, marker_lines: set, line: int) -> bool:
        # Marker on the same line, within the two lines above (wrapped
        # statements and multi-line declarators push the flagged token past
        # the line carrying the comment), or anywhere in the contiguous
        # comment/blank block immediately above — a multi-line doc comment
        # keeps its marker on the first line.
        if any(l in marker_lines for l in range(line - 2, line + 1)):
            return True
        code_lines = self.code.split("\n")
        l = line - 1
        # Skip back over trailing lines of a wrapped declarator: lines whose
        # stripped code is non-empty belong to the declaration itself only
        # within the 2-line window already checked above.
        while l >= 1:
            stripped = code_lines[l - 1].strip() if l - 1 < len(code_lines) \
                else ""
            if stripped:
                break
            if l in marker_lines:
                return True
            l -= 1
        return False


# --------------------------------------------------------------------------
# Textual frontend: a tokenizer + scope tracker. Understands namespaces,
# class scopes, out-of-line qualified definitions, lambdas, MutexLock
# scopes, and statement boundaries — enough to build the function IR
# without a compiler.
# --------------------------------------------------------------------------

KEYWORDS = {
    "if", "while", "for", "switch", "return", "sizeof", "catch", "do",
    "else", "case", "default", "new", "delete", "throw", "goto", "break",
    "continue", "alignof", "alignas", "decltype", "static_assert", "try",
    "co_return", "co_await", "co_yield", "typeid", "using", "typedef",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
}

QUAL_WORDS = {
    "const", "noexcept", "override", "final", "mutable", "volatile", "&&",
    "&", "throw",
}

ANNOT_MACROS = {
    "REQUIRES", "REQUIRES_SHARED", "ACQUIRE", "RELEASE", "TRY_ACQUIRE",
    "EXCLUDES", "ASSERT_CAPABILITY", "RETURN_CAPABILITY",
    "NO_THREAD_SAFETY_ANALYSIS", "GUARDED_BY", "PT_GUARDED_BY",
    "ACQUIRED_BEFORE", "ACQUIRED_AFTER", "NOLINT",
}

CTRL_HEADS = {"if", "while", "for", "switch", "catch"}

MARKERS = (
    (ALLOW_BLOCKING, "allow_blocking"),
    (ALLOW_DISCARD, "allow_discard"),
    (OFF_LOOP, "off_loop_lines"),
)


def canon_lock(expr: str, cls: str) -> str:
    e = expr.strip()
    for pre in ("&", "*"):
        while e.startswith(pre):
            e = e[len(pre):].strip()
    if e.startswith("this->"):
        e = e[len("this->"):].strip()
    if re.fullmatch(r"[A-Za-z_]\w*", e):
        return f"{cls}::{e}" if cls else e
    return e


class TextualFrontend:
    """Parses one file into a FileIR. No cross-file state."""

    name = "textual"

    def parse(self, path: Path, rel: str) -> FileIR:
        raw = path.read_text(encoding="utf-8", errors="replace")
        code = strip_comments_keep_lines(raw)
        ir = FileIR(path=path, raw_lines=raw.splitlines(), code=code)
        for lineno, line in enumerate(ir.raw_lines, 1):
            for marker, attr in MARKERS:
                if marker in line:
                    getattr(ir, attr).add(lineno)
        toks = lex(code)
        self._scan(toks, ir)
        return ir

    # -- brace classification ------------------------------------------------

    def _match_open(self, toks, close_idx, open_ch="(", close_ch=")"):
        depth = 0
        j = close_idx
        while j >= 0:
            t = toks[j].text
            if t == close_ch:
                depth += 1
            elif t == open_ch:
                depth -= 1
                if depth == 0:
                    return j
            j -= 1
        return -1

    def _match_close(self, toks, open_idx, open_ch="(", close_ch=")"):
        depth = 0
        j = open_idx
        n = len(toks)
        while j < n:
            t = toks[j].text
            if t == open_ch:
                depth += 1
            elif t == close_ch:
                depth -= 1
                if depth == 0:
                    return j
            j += 1
        return -1

    def _classify_brace(self, toks, i, stmt_start, ctx_kind):
        """Classify the `{` at toks[i].

        Returns (kind, info): kind in {"ns", "cls", "fn", "lambda", "block"};
        for "ns"/"cls" info is the name, for "fn" info is a dict with
        declarator details.
        """
        j = i - 1
        requires = []
        budget = 64
        while j >= 0 and budget:
            budget -= 1
            t = toks[j].text
            if t in (";", "{", "}"):
                break
            if t == ")":
                k = self._match_open(toks, j)
                if k <= 0:
                    break
                head = toks[k - 1].text
                if head in ANNOT_MACROS:
                    if head in ("REQUIRES", "REQUIRES_SHARED"):
                        requires.append(
                            " ".join(x.text for x in toks[k + 1:j]))
                    j = k - 1
                    continue
                if head in CTRL_HEADS:
                    return "block", None
                if toks[k - 1].text == "]":
                    return "lambda", None
                if re.fullmatch(r"[A-Za-z_]\w*", head) or head in (">",):
                    # Candidate declarator ending at k-1 — only a function
                    # definition at namespace/class scope.
                    if ctx_kind in ("ns", "cls", "global"):
                        return "fn", {"paren": k, "requires": requires}
                    return "block", None
                return "block", None
            if t == "]":
                return "lambda", None
            if t == "namespace":
                return "ns", ""
            if (re.fullmatch(r"[A-Za-z_]\w*", t)
                    and j >= 1 and toks[j - 1].text == "namespace"):
                return "ns", t
            if t in ("=", ",", "(", "return", "["):
                return "block", None
            if t in ("else", "do", "try"):
                return "block", None
            if t in ("class", "struct", "union", "enum"):
                # Name: first plain identifier after the keyword.
                name = ""
                for x in toks[j + 1:i]:
                    if x.text in ("class",):  # enum class
                        continue
                    if re.fullmatch(r"[A-Za-z_]\w*", x.text) \
                            and x.text not in ("final", "alignas"):
                        name = x.text
                        break
                    if x.text in (":", "<"):
                        break
                return "cls", name
            # Qualifier words, trailing-return-type tokens, base-clause
            # tokens: keep scanning back.
            j -= 1
        # Look for class/struct earlier in the statement.
        for x in toks[stmt_start:i]:
            if x.text in ("class", "struct", "union", "enum"):
                return self._classify_brace_cls(toks, stmt_start, i)
        return "block", None

    def _classify_brace_cls(self, toks, stmt_start, i):
        name = ""
        seen_kw = False
        for x in toks[stmt_start:i]:
            if x.text in ("class", "struct", "union", "enum"):
                seen_kw = True
                continue
            if seen_kw and re.fullmatch(r"[A-Za-z_]\w*", x.text) \
                    and x.text not in ("final", "alignas", "class"):
                name = x.text
            if x.text in (":", "<") and name:
                break
        return "cls", name

    def _declarator(self, toks, paren_idx, stmt_start):
        """Extract (name, qual_chain, ret_tokens) for the declarator whose
        parameter list opens at paren_idx."""
        j = paren_idx - 1
        chain = []
        # Terminal name segment: identifier, ~identifier, or operator-id.
        if j >= stmt_start and re.fullmatch(r"[A-Za-z_]\w*", toks[j].text):
            chain.append(toks[j].text)
            j -= 1
            if j >= stmt_start and toks[j].text == "~":
                chain[-1] = "~" + chain[-1]
                j -= 1
        elif j >= stmt_start:  # operator== etc: back up over symbol tokens
            k = j
            while k >= stmt_start and toks[k].text != "operator":
                k -= 1
            if k >= stmt_start:
                chain.append("operator" + "".join(
                    x.text for x in toks[k + 1:j + 1]))
                j = k - 1
        # Qualifier segments, only while connected by `::`.
        while (j - 1 >= stmt_start and toks[j].text == "::"
               and re.fullmatch(r"[A-Za-z_]\w*", toks[j - 1].text)):
            chain.append(toks[j - 1].text)
            j -= 2
        chain.reverse()
        name = chain[-1] if chain else ""
        quals = tuple(chain[:-1])
        ret = [x.text for x in toks[stmt_start:j + 1]]
        return name, quals, ret

    # -- main scan -----------------------------------------------------------

    def _scan(self, toks, ir: FileIR):
        ctx = [{"kind": "global", "name": "", "fn": None}]
        n = len(toks)
        i = 0
        stmt_start = 0
        paren_depth = 0
        # Held locks: list of dicts {lock, depth(None=explicit), }
        held = []
        brace_depth = 0
        detached_until_semi = False
        fn_depth_stack = []  # brace depth at which each fn body opened

        def cur_fn():
            for c in reversed(ctx):
                if c["kind"] == "fn":
                    return c["fn"]
            return None

        def cur_cls():
            for c in reversed(ctx):
                if c["kind"] == "cls":
                    return c["name"]
            return None

        def in_lambda():
            for c in reversed(ctx):
                if c["kind"] == "fn":
                    return False
                if c["kind"] == "lambda":
                    return True
            return False

        def held_names():
            return tuple(h["lock"] for h in held)

        while i < n:
            t = toks[i]
            txt = t.text
            if txt == "(":
                paren_depth += 1
            elif txt == ")":
                paren_depth = max(0, paren_depth - 1)
            elif txt == "{":
                kind, info = self._classify_brace(
                    toks, i, stmt_start, ctx[-1]["kind"])
                if kind == "ns":
                    ctx.append({"kind": "ns", "name": info, "fn": None})
                elif kind == "cls":
                    ctx.append({"kind": "cls", "name": info, "fn": None})
                elif kind == "fn":
                    name, quals, ret = self._declarator(
                        toks, info["paren"], stmt_start)
                    cls = quals[-1] if quals else (cur_cls() or "")
                    ns = "::".join(
                        c["name"] for c in ctx
                        if c["kind"] == "ns" and c["name"])
                    # Anchor at the first declaration token, not the `{`:
                    # a wrapped parameter list must not push the function
                    # past its own `lint:off-loop` comment.
                    decl_line = (toks[stmt_start].line
                                 if stmt_start < len(toks) else t.line)
                    fn = FunctionInfo(
                        name=name, cls=cls, ns=ns, file=ir.path,
                        line=decl_line,
                        returns_status=any(
                            r in ("Status", "Result") for r in ret),
                        requires=tuple(
                            canon_lock(r, cls) for r in info["requires"]),
                        off_loop=ir.annotated(ir.off_loop_lines, decl_line),
                    )
                    # A REQUIRES(mu) body runs with mu held throughout.
                    for r in fn.requires:
                        held.append({"lock": r, "depth": brace_depth + 1,
                                     "scoped": True})
                    ir.functions.append(fn)
                    ctx.append({"kind": "fn", "name": name, "fn": fn})
                    fn_depth_stack.append(brace_depth + 1)
                elif kind == "lambda":
                    ctx.append({"kind": "lambda", "name": "", "fn": None})
                else:
                    ctx.append({"kind": "block", "name": "", "fn": None})
                brace_depth += 1
                stmt_start = i + 1
            elif txt == "}":
                held[:] = [h for h in held
                           if not (h["scoped"] and h["depth"] >= brace_depth)]
                brace_depth = max(0, brace_depth - 1)
                if len(ctx) > 1:
                    popped = ctx.pop()
                    if popped["kind"] == "fn" and fn_depth_stack:
                        fn_depth_stack.pop()
                stmt_start = i + 1
            elif txt == ";" and paren_depth == 0:
                stmt_start = i + 1
                detached_until_semi = False
            fn = cur_fn()
            if fn is not None:
                i = self._body_token(
                    toks, i, stmt_start, fn, ir, held, brace_depth,
                    cur_cls() or fn.cls, in_lambda(),
                    detached_until_semi, held_names)
                if toks[i].text == "thread" and i >= 2 \
                        and toks[i - 1].text == "::" \
                        and toks[i - 2].text == "std":
                    detached_until_semi = True
            i += 1

    def _split_args(self, toks, open_idx, close_idx):
        args = []
        depth = 0
        cur = []
        for x in toks[open_idx + 1:close_idx]:
            if x.text in ("(", "[", "{"):
                depth += 1
            elif x.text in (")", "]", "}"):
                depth -= 1
            if x.text == "," and depth == 0:
                args.append(" ".join(cur))
                cur = []
            else:
                cur.append(x.text)
        if cur or args:
            args.append(" ".join(cur))
        return tuple(args)

    def _chain_start(self, toks, name_idx, stmt_start):
        """Walk the receiver/qualifier chain left of toks[name_idx]; returns
        the index where the full call chain begins."""
        j = name_idx
        while j > stmt_start:
            prev = toks[j - 1].text
            if prev == "::" and j >= 2:
                j -= 2
            elif prev in (".", "->") and j >= 2:
                p2 = toks[j - 2].text
                if p2 == ")":
                    k = self._match_open(toks, j - 2)
                    if k > 0 and re.fullmatch(
                            r"[A-Za-z_]\w*", toks[k - 1].text):
                        j = k - 1
                    elif k > 0 and toks[k - 1].text == "]":
                        # subscript: arr[i]->f()
                        m = self._match_open(toks, k - 1, "[", "]")
                        j = m - 1 if m > 0 else k
                    else:
                        j = k if k > 0 else j - 2
                elif p2 == "]":
                    m = self._match_open(toks, j - 2, "[", "]")
                    j = m - 1 if m > 0 else j - 2
                elif re.fullmatch(r"[A-Za-z_]\w*", p2) or p2 == ")":
                    j -= 2
                else:
                    break
            else:
                break
        return j

    def _body_token(self, toks, i, stmt_start, fn, ir, held, brace_depth,
                    cls, in_lambda, detached, held_names):
        t = toks[i]
        txt = t.text
        n = len(toks)
        nxt = toks[i + 1].text if i + 1 < n else ""

        # return Status::OK();
        if txt == "return" and i + 5 < n \
                and toks[i + 1].text == "Status" \
                and toks[i + 2].text == "::" and toks[i + 3].text == "OK":
            fn.ok_returns.append(t.line)
            return i

        # MutexLock <var>(&mu_);
        if txt == "MutexLock" and i + 2 < n \
                and re.fullmatch(r"[A-Za-z_]\w*", nxt) \
                and toks[i + 2].text == "(":
            close = self._match_close(toks, i + 2)
            if close > 0:
                expr = " ".join(x.text for x in toks[i + 3:close])
                lock = canon_lock(expr.replace(" ", ""), cls)
                for h in held_names():
                    fn.lock_edges.append(LockEdge(h, lock, t.line))
                fn.acquired.add(lock)
                held.append({"lock": lock, "depth": brace_depth,
                             "scoped": True})
            return close if close > 0 else i

        # <expr>.Lock() / .Unlock() / .TryLock()
        if txt in ("Lock", "Unlock", "TryLock") and nxt == "(" and i >= 2 \
                and toks[i - 1].text in (".", "->"):
            recv = toks[i - 2].text
            if re.fullmatch(r"[A-Za-z_]\w*", recv) and recv != "lock":
                lock = canon_lock(recv, cls)
                if txt in ("Lock", "TryLock"):
                    for h in held_names():
                        fn.lock_edges.append(LockEdge(h, lock, t.line))
                    fn.acquired.add(lock)
                    held.append({"lock": lock, "depth": None,
                                 "scoped": False})
                else:
                    held[:] = [h for h in held if h["lock"] != lock]
            return i

        # General call site: identifier followed by `(`.
        if nxt == "(" and re.fullmatch(r"[A-Za-z_]\w*", txt) \
                and txt not in KEYWORDS and txt not in ANNOT_MACROS:
            prev = toks[i - 1].text if i >= 1 else ""
            if prev in ("class", "struct", "enum", "new", "namespace"):
                return i
            close = self._match_close(toks, i + 1)
            if close < 0:
                return i
            is_member = prev in (".", "->")
            receiver = ""
            if is_member and i >= 2:
                r = toks[i - 2].text
                receiver = r if re.fullmatch(r"[A-Za-z_]\w*|this", r) else ""
            qual = []
            j = i
            while j >= 2 and toks[j - 1].text == "::" \
                    and re.fullmatch(r"[A-Za-z_]\w*", toks[j - 2].text):
                qual.insert(0, toks[j - 2].text)
                j -= 2
            colon_prefix = (j >= 1 and toks[j - 1].text == "::"
                            and (j < 2 or not re.fullmatch(
                                r"[A-Za-z_]\w*", toks[j - 2].text)))
            chain_start = self._chain_start(toks, j if qual else i,
                                            stmt_start)
            void_cast = False
            head = chain_start == stmt_start
            if not head and chain_start == stmt_start + 3 \
                    and toks[stmt_start].text == "(" \
                    and toks[stmt_start + 1].text == "void" \
                    and toks[stmt_start + 2].text == ")":
                head, void_cast = True, True
            ends = close + 1 < n and toks[close + 1].text == ";"
            fn.calls.append(CallSite(
                name=txt, line=t.line, qual=tuple(qual),
                is_member=is_member, receiver=receiver,
                colon_prefix=colon_prefix,
                args=self._split_args(toks, i + 1, close),
                held=held_names(), detached=detached,
                stmt_head=head, ends_stmt=ends, void_cast=void_cast))
            return i
        return i


# --------------------------------------------------------------------------
# Cross-file analysis: registry, call resolution, and the checks.
# --------------------------------------------------------------------------

SLEEP_FNS = {"sleep_for", "sleep_until", "usleep", "nanosleep", "sleep"}
FSYNC_FNS = {"fsync", "fdatasync"}
WAIT_METHODS = {"Wait", "WaitFor"}


@dataclass
class Finding:
    path: str
    line: int
    check: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


class Analysis:
    def __init__(self, root: Path, config: dict):
        self.root = root
        self.config = config
        self.files: dict[str, FileIR] = {}   # rel path -> FileIR
        self.by_name: dict[str, list[FunctionInfo]] = {}
        self.findings: list[Finding] = []
        self._blocked_memo: dict[int, object] = {}
        self._acq_memo: dict[int, frozenset] = {}
        self._loop_dirs = [Path(d) for d in config["loop_owned_dirs"]]
        self._loop_globs = [(Path(d), g)
                            for d, g in config["loop_owned_globs"]]

    # -- helpers -------------------------------------------------------------

    def rel(self, path: Path) -> str:
        try:
            return str(path.relative_to(self.root))
        except ValueError:
            return str(path)

    def add_file(self, ir: FileIR):
        relp = self.rel(ir.path)
        self.files[relp] = ir
        for fn in ir.functions:
            self.by_name.setdefault(fn.name, []).append(fn)

    def loop_owned(self, relp: str) -> bool:
        p = Path(relp)
        if p.name.endswith("_main.cc"):
            return False
        for d in self._loop_dirs:
            if d in p.parents:
                return True
        for d, pattern in self._loop_globs:
            if p.parent == d and fnmatch.fnmatch(p.name, pattern):
                return True
        return False

    def resolve(self, call: CallSite, ctx: FunctionInfo):
        """Returns the candidate FunctionInfo list for a call, or [] when
        unknown/ambiguous. Conservative: a member call through an object is
        resolved only when every same-named method lives in one class."""
        cands = self.by_name.get(call.name)
        if not cands:
            return []
        if call.qual:
            want = call.qual[-1]
            qmatch = [c for c in cands if c.cls == want or
                      (c.ns and c.ns.split("::")[-1] == want)]
            return qmatch
        if call.is_member:
            if call.receiver == "this":
                same = [c for c in cands if c.cls == ctx.cls]
                return same
            classes = {c.cls for c in cands}
            if len(classes) == 1:
                return cands
            return []
        # Unqualified direct call: same class first, then unique.
        same = [c for c in cands if c.cls == ctx.cls and ctx.cls]
        if same:
            return same
        free = [c for c in cands if not c.cls]
        if free:
            return free
        classes = {c.cls for c in cands}
        return cands if len(classes) == 1 else []

    # -- blocking ------------------------------------------------------------

    def primitive_kind(self, call: CallSite):
        if call.name in SLEEP_FNS:
            return f"{call.name}()"
        if call.name in FSYNC_FNS:
            return f"{call.name}()"
        if call.name == "connect" and call.colon_prefix:
            return "::connect()"
        if call.name in WAIT_METHODS and call.is_member:
            return f"blocking {call.name}()"
        return None

    def blocked_witness(self, fn: FunctionInfo, stack=None):
        """Returns a list of (description, relpath, line) hops ending at an
        unsuppressed blocking primitive reachable from fn, else None."""
        key = id(fn)
        if key in self._blocked_memo:
            return self._blocked_memo[key]
        stack = stack or set()
        if key in stack:
            return None
        stack = stack | {key}
        self._blocked_memo[key] = None  # break recursion pessimistically
        ir = self.files[self.rel(fn.file)]
        result = None
        for call in fn.calls:
            if call.detached:
                continue
            if ir.annotated(ir.allow_blocking, call.line):
                continue
            prim = self.primitive_kind(call)
            if prim:
                result = [(prim, self.rel(fn.file), call.line)]
                break
            for cand in self.resolve(call, fn):
                if cand is fn:
                    continue
                sub = self.blocked_witness(cand, stack)
                if sub:
                    result = [(cand.qual or cand.name, self.rel(fn.file),
                               call.line)] + sub
                    break
            if result:
                break
        self._blocked_memo[key] = result
        return result

    def check_blocking(self):
        for relp, ir in sorted(self.files.items()):
            if not self.loop_owned(relp):
                continue
            for fn in ir.functions:
                if fn.off_loop or fn.name == "main":
                    continue
                wit = self.blocked_witness(fn)
                if not wit:
                    continue
                first_desc, first_file, first_line = wit[0]
                if len(wit) == 1:
                    self.findings.append(Finding(
                        relp, first_line, "blocking-loop",
                        f"{first_desc} on a loop-owned thread (in "
                        f"{fn.qual or fn.name}) — hop off the loop or "
                        f"annotate with `{ALLOW_BLOCKING} -- <reason>`"))
                else:
                    path = " -> ".join(
                        f"{d} ({f}:{l})" for d, f, l in wit)
                    self.findings.append(Finding(
                        relp, first_line, "blocking-transitive",
                        f"{fn.qual or fn.name} reaches a blocking call: "
                        f"{path} — hop off the loop, annotate the call "
                        f"site with `{ALLOW_BLOCKING} -- <reason>`, or mark "
                        f"the entry `{OFF_LOOP} -- <reason>`"))

    # -- lock order ----------------------------------------------------------

    def acquires_transitive(self, fn: FunctionInfo, stack=None):
        key = id(fn)
        if key in self._acq_memo:
            return self._acq_memo[key]
        stack = stack or set()
        if key in stack:
            return frozenset()
        stack = stack | {key}
        self._acq_memo[key] = frozenset()
        acq = set(fn.acquired)
        for call in fn.calls:
            if call.detached:
                continue
            for cand in self.resolve(call, fn):
                if cand is not fn:
                    acq |= self.acquires_transitive(cand, stack)
        out = frozenset(acq)
        self._acq_memo[key] = out
        return out

    def check_lock_order(self):
        allow = set()
        allow_path = self.config.get("lock_order_allow")
        if allow_path:
            p = self.root / allow_path
            if p.is_file():
                for line in p.read_text().splitlines():
                    line = line.split("#", 1)[0].strip()
                    if not line:
                        continue
                    parts = line.split()
                    if len(parts) == 2:
                        allow.add((parts[0], parts[1]))
        edges = {}  # (held, acquired) -> (relpath, line)
        for relp, ir in sorted(self.files.items()):
            for fn in ir.functions:
                for e in fn.lock_edges:
                    edges.setdefault((e.held, e.acquired), (relp, e.line))
                for call in fn.calls:
                    if not call.held or call.detached:
                        continue
                    prim = self.primitive_kind(call)
                    if prim:
                        continue
                    for cand in self.resolve(call, fn):
                        if cand is fn:
                            continue
                        for l in self.acquires_transitive(cand):
                            for h in call.held:
                                if h != l:
                                    edges.setdefault(
                                        (h, l), (relp, call.line))
        graph = {}
        for (h, a), where in edges.items():
            if (h, a) in allow or h == a:
                continue
            graph.setdefault(h, []).append((a, where))
        # DFS cycle detection.
        color = {}
        stack_path = []

        def dfs(node):
            color[node] = 1
            stack_path.append(node)
            for (nb, where) in graph.get(node, []):
                if color.get(nb, 0) == 1:
                    cyc = stack_path[stack_path.index(nb):] + [nb]
                    relp, line = where
                    self.findings.append(Finding(
                        relp, line, "lock-order",
                        "lock-order cycle: " + " -> ".join(cyc) +
                        " — fix the ordering or whitelist the reviewed "
                        "edge in " + str(self.config.get(
                            "lock_order_allow"))))
                elif color.get(nb, 0) == 0:
                    dfs(nb)
            stack_path.pop()
            color[node] = 2

        for node in sorted(graph):
            if color.get(node, 0) == 0:
                dfs(node)

    # -- status discard ------------------------------------------------------

    def check_status_discard(self):
        for relp, ir in sorted(self.files.items()):
            for fn in ir.functions:
                for call in fn.calls:
                    if not (call.stmt_head and call.ends_stmt):
                        continue
                    cands = self.resolve(call, fn)
                    if not cands or not all(
                            c.returns_status for c in cands):
                        continue
                    if call.void_cast:
                        if ir.annotated(ir.allow_discard, call.line):
                            continue
                        self.findings.append(Finding(
                            relp, call.line, "status-discard",
                            f"(void)-cast discards Status from "
                            f"{call.name}() without a reason — annotate "
                            f"with `{ALLOW_DISCARD} -- <reason>`"))
                    else:
                        self.findings.append(Finding(
                            relp, call.line, "status-discard",
                            f"result of {call.name}() (Status/Result) is "
                            f"discarded — handle it, or cast to (void) "
                            f"with `{ALLOW_DISCARD} -- <reason>`"))

    # -- rpc deadline --------------------------------------------------------

    def check_rpc_deadline(self):
        for relp, ir in sorted(self.files.items()):
            for fn in ir.functions:
                for call in fn.calls:
                    if call.name != "Call" or not call.is_member:
                        continue
                    if len(call.args) != 5:
                        continue
                    deadline = call.args[2].strip()
                    if deadline == "0":
                        self.findings.append(Finding(
                            relp, call.line, "rpc-deadline",
                            "rpc::Channel::Call with deadline 0 (no "
                            "deadline) — every internal RPC must carry an "
                            "explicit caller budget"))

    # -- ok-return pairing ---------------------------------------------------

    def check_ok_return(self):
        for rule in self.config.get("ok_return_rules", []):
            cls, method, must = rule["class"], rule["method"], \
                rule["must_call"]
            for fn in self.by_name.get(method, []):
                if fn.cls != cls or not fn.ok_returns:
                    continue
                call_lines = [c.line for c in fn.calls
                              if c.name == must]
                first = min(call_lines) if call_lines else None
                for line in fn.ok_returns:
                    if first is None or line < first:
                        self.findings.append(Finding(
                            self.rel(fn.file), line, "ok-return",
                            f"{cls}::{method} returns Status::OK() "
                            f"without calling {must}() first"))

    # -- file-level rules --------------------------------------------------

    RAW_SYNC = [
        (re.compile(r"#\s*include\s*<mutex>"), "#include <mutex>"),
        (re.compile(r"#\s*include\s*<condition_variable>"),
         "#include <condition_variable>"),
        (re.compile(r"\bstd::(?:timed_|recursive_|shared_)?mutex\b"),
         "raw std:: mutex type"),
        (re.compile(r"\bstd::(?:lock_guard|unique_lock|scoped_lock)\b"),
         "raw std:: lock type"),
        (re.compile(r"\bstd::condition_variable(?:_any)?\b"),
         "raw std::condition_variable"),
    ]
    ATOMIC_ACCESS = re.compile(r"\.(load|store)\s*\(")
    TRACE_SYNC_INCLUDE = re.compile(r"#\s*include\s*\"common/sync\.h\"")
    TRACE_LOCK_IDENT = re.compile(
        r"\b(?:memdb::)?(?:Mutex|MutexLock|CondVar)\b")

    @staticmethod
    def _line_of(text, offset):
        return text.count("\n", 0, offset) + 1

    def check_file_rules(self):
        sync_exempt = set(self.config["sync_exempt"])
        trace_files = set(self.config["trace_lock_free"])
        for relp, ir in sorted(self.files.items()):
            code = ir.code
            if relp not in sync_exempt:
                for pattern, what in self.RAW_SYNC:
                    for m in pattern.finditer(code):
                        self.findings.append(Finding(
                            relp, self._line_of(code, m.start()),
                            "raw-sync",
                            f"{what} — use memdb::Mutex/MutexLock/CondVar "
                            f"from common/sync.h"))
            for m in self.ATOMIC_ACCESS.finditer(code):
                depth, j = 1, m.end()
                while j < len(code) and depth > 0:
                    if code[j] == "(":
                        depth += 1
                    elif code[j] == ")":
                        depth -= 1
                    j += 1
                if "memory_order" not in code[m.end():j - 1]:
                    self.findings.append(Finding(
                        relp, self._line_of(code, m.start()),
                        "memory-order",
                        f".{m.group(1)}() without an explicit "
                        f"std::memory_order"))
            if relp in trace_files:
                raw = "\n".join(ir.raw_lines)
                why = ("span recording runs inline on event-loop threads "
                       "and must stay lock-free")
                for m in self.TRACE_SYNC_INCLUDE.finditer(raw):
                    self.findings.append(Finding(
                        relp, self._line_of(raw, m.start()),
                        "trace-lock-free",
                        f"include of common/sync.h in the trace hot path "
                        f"— {why}"))
                for m in self.TRACE_LOCK_IDENT.finditer(code):
                    self.findings.append(Finding(
                        relp, self._line_of(code, m.start()),
                        "trace-lock-free",
                        f"blocking lock primitive {m.group(0)} in the "
                        f"trace hot path — {why}"))

    def run(self, checks=None):
        all_checks = {
            "blocking": self.check_blocking,
            "lock-order": self.check_lock_order,
            "status-discard": self.check_status_discard,
            "rpc-deadline": self.check_rpc_deadline,
            "ok-return": self.check_ok_return,
            "file-rules": self.check_file_rules,
        }
        for name, chk in all_checks.items():
            if checks and name not in checks:
                continue
            chk()
        self.findings.sort(key=lambda f: (f.path, f.line, f.check))
        return self.findings


# --------------------------------------------------------------------------
# libclang frontend: same IR, real AST. Best-effort — any failure (missing
# module, unloadable libclang, parse crash) falls back to the textual
# frontend so the gate never depends on a healthy clang install.
# --------------------------------------------------------------------------


class ClangFrontend:
    name = "clang"

    def __init__(self, root: Path):
        import clang.cindex as ci  # raises ImportError when absent
        self.ci = ci
        self.index = ci.Index.create()  # raises when libclang won't load
        self.root = root
        self.args = ["-xc++", "-std=c++20", f"-I{root / 'src'}",
                     f"-I{root}"]
        self.textual = TextualFrontend()

    def parse(self, path: Path, rel: str) -> FileIR:
        try:
            return self._parse(path)
        except Exception as e:  # noqa: BLE001 — deliberate broad fallback
            print(f"memdb-analyzer: clang frontend failed on {rel} "
                  f"({type(e).__name__}: {e}); using textual frontend "
                  f"for this file", file=sys.stderr)
            return self.textual.parse(path, rel)

    def _parse(self, path: Path) -> FileIR:
        raw = path.read_text(encoding="utf-8", errors="replace")
        ir = FileIR(path=path, raw_lines=raw.splitlines(),
                    code=strip_comments_keep_lines(raw))
        for lineno, line in enumerate(ir.raw_lines, 1):
            for marker, attr in MARKERS:
                if marker in line:
                    getattr(ir, attr).add(lineno)
        tu = self.index.parse(str(path), args=self.args)
        self._walk(tu.cursor, "", "", ir, str(path))
        return ir

    def _tok_text(self, cur) -> str:
        return " ".join(t.spelling for t in cur.get_tokens())

    def _walk(self, cur, ns, cls, ir, path):
        K = self.ci.CursorKind
        for ch in cur.get_children():
            k = ch.kind
            if k == K.NAMESPACE:
                sub = f"{ns}::{ch.spelling}" if ns else ch.spelling
                self._walk(ch, sub, cls, ir, path)
            elif k in (K.CLASS_DECL, K.STRUCT_DECL, K.CLASS_TEMPLATE,
                       K.UNION_DECL):
                self._walk(ch, ns, ch.spelling or cls, ir, path)
            elif k in (K.FUNCTION_DECL, K.CXX_METHOD, K.CONSTRUCTOR,
                       K.DESTRUCTOR, K.FUNCTION_TEMPLATE):
                if not ch.is_definition():
                    continue
                loc = ch.location
                if not loc.file or str(loc.file) != path:
                    continue
                fcls = cls
                sp = ch.semantic_parent
                if sp is not None and sp.kind in (
                        K.CLASS_DECL, K.STRUCT_DECL, K.CLASS_TEMPLATE):
                    fcls = sp.spelling
                ret = ""
                try:
                    ret = ch.result_type.spelling or ""
                except Exception:  # noqa: BLE001
                    pass
                fn = FunctionInfo(
                    name=ch.spelling.split("<")[0], cls=fcls, ns=ns,
                    file=ir.path, line=loc.line,
                    returns_status=("Status" in ret.replace(
                        "StatusCode", "") or "Result<" in ret),
                    off_loop=ir.annotated(ir.off_loop_lines, loc.line))
                # REQUIRES() locks from the declaration tokens (TSA
                # attributes are invisible to cindex).
                header = []
                for t in ch.get_tokens():
                    if t.spelling == "{":
                        break
                    header.append(t.spelling)
                htext = " ".join(header)
                for m in re.finditer(r"\bREQUIRES(?:_SHARED)?\s*\(([^)]*)\)",
                                     htext):
                    fn.requires = fn.requires + tuple(
                        canon_lock(a.strip().replace(" ", ""), fcls)
                        for a in m.group(1).split(","))
                ir.functions.append(fn)
                held = [{"lock": r, "scoped": True} for r in fn.requires]
                for body in ch.get_children():
                    if body.kind == K.COMPOUND_STMT:
                        self._body(body, fn, fcls, held, ir,
                                   detached=False)
            else:
                self._walk(ch, ns, cls, ir, path)

    def _body(self, cur, fn, cls, held, ir, detached):
        K = self.ci.CursorKind
        for ch in cur.get_children():
            k = ch.kind
            if k == K.COMPOUND_STMT:
                mark = len(held)
                self._body(ch, fn, cls, held, ir, detached)
                del held[mark:]
                continue
            if k == K.DECL_STMT:
                for d in ch.get_children():
                    if d.kind == K.VAR_DECL:
                        ty = d.type.spelling
                        if "MutexLock" in ty:
                            txt = self._tok_text(d)
                            m = re.search(r"\(([^)]*)\)", txt)
                            lock = canon_lock(
                                (m.group(1) if m else "").replace(" ", ""),
                                cls)
                            for h in held:
                                fn.lock_edges.append(LockEdge(
                                    h["lock"], lock, d.location.line))
                            fn.acquired.add(lock)
                            held.append({"lock": lock, "scoped": True})
                        elif "std::thread" in ty or ty.endswith("thread"):
                            self._body(d, fn, cls, held, ir, True)
                            continue
                    self._body(d, fn, cls, held, ir, detached)
                continue
            if k == K.RETURN_STMT:
                txt = self._tok_text(ch)
                if re.match(r"return\s+Status\s*::\s*OK", txt):
                    fn.ok_returns.append(ch.location.line)
                self._body(ch, fn, cls, held, ir, detached)
                continue
            if k in (K.CALL_EXPR,):
                self._call(ch, fn, cls, held, ir, detached,
                           stmt_parent=(cur.kind == K.COMPOUND_STMT),
                           void_cast=False)
                continue
            if k == K.CSTYLE_CAST_EXPR and cur.kind == K.COMPOUND_STMT:
                inner = [c for c in ch.get_children()]
                if inner and inner[-1].kind == K.CALL_EXPR \
                        and "void" in self._tok_text(ch)[:8]:
                    self._call(inner[-1], fn, cls, held, ir, detached,
                               stmt_parent=True, void_cast=True)
                    continue
            self._body(ch, fn, cls, held, ir, detached)

    def _call(self, ch, fn, cls, held, ir, detached, stmt_parent,
              void_cast):
        K = self.ci.CursorKind
        name = ch.spelling or ""
        toks = [t.spelling for t in ch.get_tokens()]
        qual = ()
        is_member = False
        receiver = ""
        ref = ch.referenced
        if ref is not None:
            sp = ref.semantic_parent
            if sp is not None and sp.kind in (
                    K.CLASS_DECL, K.STRUCT_DECL, K.CLASS_TEMPLATE):
                qual = (sp.spelling,)
                is_member = True
        if "std::thread" in (ch.type.spelling or ""):
            detached = True
        colon_prefix = len(toks) >= 1 and toks[0] == "::"
        # Lock()/Unlock() on a memdb::Mutex member.
        if name in ("Lock", "Unlock", "TryLock") and qual == ("Mutex",):
            m = re.match(r"([A-Za-z_]\w*)\s*(?:\.|->)", " ".join(toks))
            lock = canon_lock(m.group(1) if m else "", cls)
            if name in ("Lock", "TryLock"):
                for h in held:
                    fn.lock_edges.append(LockEdge(
                        h["lock"], lock, ch.location.line))
                fn.acquired.add(lock)
                held.append({"lock": lock, "scoped": False})
            else:
                held[:] = [h for h in held if h["lock"] != lock]
            return
        args = []
        try:
            for a in ch.get_arguments():
                args.append(" ".join(t.spelling for t in a.get_tokens()))
        except Exception:  # noqa: BLE001
            pass
        if name:
            fn.calls.append(CallSite(
                name=name.split("<")[0], line=ch.location.line, qual=qual,
                is_member=is_member, receiver=receiver,
                colon_prefix=colon_prefix, args=tuple(args),
                held=tuple(h["lock"] for h in held), detached=detached,
                stmt_head=stmt_parent, ends_stmt=stmt_parent,
                void_cast=void_cast))
        for sub in ch.get_children():
            self._body(sub, fn, cls, held, ir, detached)


# --------------------------------------------------------------------------
# CLI.
# --------------------------------------------------------------------------


def load_config(root: Path, path: str | None) -> dict:
    cfg = dict(DEFAULT_CONFIG)
    if path:
        with open(path, encoding="utf-8") as f:
            cfg.update(json.load(f))
    return cfg


def collect_files(root: Path, cfg: dict, explicit: list[str]):
    if explicit:
        out = []
        for p in explicit:
            pp = Path(p)
            if pp.is_dir():
                out.extend(sorted(
                    x for x in pp.rglob("*")
                    if x.suffix in CXX_SUFFIXES and x.is_file()))
            else:
                out.append(pp)
        return out
    files = []
    for r in cfg["roots"]:
        base = root / r
        files.extend(sorted(
            p for p in base.rglob("*")
            if p.suffix in CXX_SUFFIXES and p.is_file()))
    return files


def make_frontend(kind: str, root: Path):
    notice = None
    if kind in ("auto", "clang"):
        try:
            return ClangFrontend(root), None
        except Exception as e:  # noqa: BLE001
            notice = (f"clang frontend unavailable "
                      f"({type(e).__name__}: {e}); using textual frontend")
            if kind == "clang":
                return None, notice
    return TextualFrontend(), notice


def main() -> int:
    ap = argparse.ArgumentParser(
        description="memdb-analyzer: call-graph invariant checks")
    ap.add_argument("--root", default=str(REPO_ROOT),
                    help="repo root (default: this script's parent/..)")
    ap.add_argument("--config", help="JSON config overriding the defaults")
    ap.add_argument("--frontend", choices=["auto", "clang", "textual"],
                    default="auto")
    ap.add_argument("--check", action="append",
                    help="run only the named check group(s): blocking, "
                         "lock-order, status-discard, rpc-deadline, "
                         "ok-return, file-rules")
    ap.add_argument("--golden",
                    help="compare findings against this expected file "
                         "(lines: `<relpath> [<check>]`) instead of "
                         "printing them")
    ap.add_argument("paths", nargs="*",
                    help="explicit files/dirs (default: config roots)")
    args = ap.parse_args()

    root = Path(args.root).resolve()
    cfg = load_config(root, args.config)
    frontend, notice = make_frontend(args.frontend, root)
    if notice:
        print(f"memdb-analyzer: NOTICE: {notice}", file=sys.stderr)
    if frontend is None:
        return 4

    analysis = Analysis(root, cfg)
    files = collect_files(root, cfg, args.paths)
    for path in files:
        relp = analysis.rel(path.resolve())
        analysis.add_file(frontend.parse(path.resolve(), relp))
    findings = analysis.run(set(args.check) if args.check else None)

    if args.golden:
        expected = []
        with open(args.golden, encoding="utf-8") as f:
            for line in f:
                line = line.split("#", 1)[0].strip()
                if line:
                    expected.append(line)
        got = sorted(f"{f.path} [{f.check}]" for f in findings)
        expected = sorted(expected)
        if got == expected:
            print(f"memdb-analyzer: golden OK ({len(got)} finding(s) "
                  f"match, frontend={frontend.name})")
            return 0
        print("memdb-analyzer: golden MISMATCH", file=sys.stderr)
        # Multiset diff: a count mismatch on one line is still a mismatch.
        want, have = Counter(expected), Counter(got)
        for line in sorted((want - have).elements()):
            print(f"  missing:    {line}", file=sys.stderr)
        for line in sorted((have - want).elements()):
            print(f"  unexpected: {line}", file=sys.stderr)
        for f in findings:
            print(f"  detail: {f.render()}", file=sys.stderr)
        return 1

    if findings:
        print(f"memdb-analyzer: {len(findings)} finding(s) "
              f"(frontend={frontend.name})", file=sys.stderr)
        for f in findings:
            print(f.render())
        return 1
    print(f"memdb-analyzer: OK ({len(files)} files clean, "
          f"frontend={frontend.name})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
