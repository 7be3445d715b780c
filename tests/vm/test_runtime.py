"""Tests for the VM runtime builtins (the tiny libc)."""

import gc
import weakref

import pytest

from repro.backend.isel import lower_module
from repro.ir.parser import parse_module
from repro.linker.linker import link
from repro.toolchain import build
from repro.vm.interpreter import VM


def run_c(source, entry="main", args=(), opt_level=2):
    from repro.toolchain import build

    result = build(source, opt_level=opt_level)
    return VM(result.executable).run(entry, args)


class TestPrintf:
    def test_basic_formats(self):
        r = run_c(r'int main() { printf("%d|%u|%x|%c|%s", -1, 7u, 255, 'r"'z'"r', "hi"); return 0; }')
        assert r.stdout == b"-1|7|ff|z|hi"

    def test_long_values(self):
        r = run_c(r'int main() { long big = 1; big <<= 40; printf("%ld", big); return 0; }')
        assert r.stdout == str(1 << 40).encode()

    def test_percent_literal(self):
        r = run_c(r'int main() { printf("100%%"); return 0; }')
        assert r.stdout == b"100%"

    def test_return_value_is_length(self):
        r = run_c(r'int main() { return printf("abc"); }')
        assert r.exit_code == 3

    def test_missing_argument_traps(self):
        r = run_c(r'int main() { printf("%d"); return 0; }')
        assert r.trap == "bad-call"


class TestStringBuiltins:
    def test_puts_appends_newline(self):
        r = run_c(r'int main() { puts("line"); return 0; }')
        assert r.stdout == b"line\n"

    def test_putchar(self):
        r = run_c(r"int main() { putchar('A'); putchar(10); return 0; }")
        assert r.stdout == b"A\n"

    def test_strlen_strcmp(self):
        r = run_c(
            r"""
int main() {
    int eq = strcmp("abc", "abc");
    int lt = strcmp("abc", "abd");
    int gt = strcmp("b", "a");
    return (eq == 0) * 100 + (lt != 0) * 10 + (gt > 0) + (int)strlen("four") * 1000;
}
"""
        )
        assert r.exit_code == 4111


class TestMemoryBuiltins:
    def test_malloc_returns_distinct_regions(self):
        r = run_c(
            r"""
int main() {
    char *a = malloc(8);
    char *b = malloc(8);
    a[0] = 1;
    b[0] = 2;
    return a[0] * 10 + b[0];
}
"""
        )
        assert r.exit_code == 12

    def test_memcpy(self):
        r = run_c(
            r"""
int main() {
    char src[6] = "hello";
    char dst[6];
    memcpy(dst, src, 6);
    return dst[4];
}
"""
        )
        assert r.exit_code == ord("o")

    def test_memset(self):
        r = run_c(
            r"""
int main() {
    char buf[4];
    memset(buf, 'x', 4);
    return buf[3];
}
"""
        )
        assert r.exit_code == ord("x")

    def test_strlen_of_null_traps(self):
        r = run_c("long strlen(char *s); int main() { return (int)strlen((char*)0); }")
        assert r.trap == "bad-memory"

    @pytest.mark.parametrize("opt_level", [0, 2])
    def test_memset_into_const_data_traps_like_a_store(self, opt_level):
        decl = 'const char T[4] = "abc"; '
        store = run_c(decl + "int main() { char *p = (char*)T; p[0] = 9; return T[0]; }",
                      opt_level=opt_level)
        memset = run_c(decl + "int main() { memset((void*)T, 9, 4); return T[0]; }",
                       opt_level=opt_level)
        assert store.trap == memset.trap == "bad-memory"

    def test_memcpy_into_const_data_traps(self):
        r = run_c('const char T[4] = "abc"; char S[4] = "xyz";'
                  " int main() { memcpy((void*)T, S, 4); return T[0]; }")
        assert r.trap == "bad-memory"

    def test_oom_traps(self):
        src = r"""
int main() {
    long i;
    for (i = 0; i < 100000; i++) malloc(65536);
    return 0;
}
"""
        r = run_c(src)
        assert r.trap == "oom"


class TestProcessBuiltins:
    def test_exit_code_propagates(self):
        assert run_c("int main() { exit(42); return 0; }").exit_code == 42

    def test_abort_trap_kind(self):
        assert run_c("int main() { abort(); return 0; }").trap == "abort"

    def test_discarded_vm_is_freed_without_cyclic_gc(self):
        """A VM and its builtins form no reference cycle: the 4 MiB of
        guest memory goes as soon as the last reference does."""
        from repro.instrument.coverage import CoverageRuntime

        exe = build('int main() { puts("x"); return 0; }').executable
        gc.disable()
        try:
            vm = VM(exe, probe_runtime=CoverageRuntime())
            assert vm.run("main").stdout == b"x\n"
            ref = weakref.ref(vm)
            del vm
            assert ref() is None
        finally:
            gc.enable()

    def test_builtin_charges_cycles(self):
        base = run_c("int main() { return 0; }").cycles
        with_call = run_c('int main() { puts("x"); return 0; }').cycles
        assert with_call > base
