package hostcall

import (
	"bytes"
	"sync"
	"testing"

	"hfi/internal/cpu"
	"hfi/internal/isa"
	"hfi/internal/kernel"
)

const (
	testHeapBase = uint64(0x10_0000)
	testHeapSize = uint64(1) << 16
)

func testEnv(t testing.TB, seed uint64, tenant string) (*World, *Env, *cpu.Machine) {
	t.Helper()
	m := cpu.NewMachine()
	if err := m.AS.MapFixed(testHeapBase, testHeapSize, kernel.ProtRead|kernel.ProtWrite); err != nil {
		t.Fatal(err)
	}
	w := NewWorld(seed)
	e := w.NewEnv(tenant)
	e.Bind(m, testHeapBase, testHeapSize)
	return w, e, m
}

// call drives the installed dispatcher exactly as the hostcall gate
// instruction does: number in R0, args in R1-R5, result back in R0.
func call(m *cpu.Machine, num uint64, args ...uint64) uint64 {
	m.Regs[isa.R0] = num
	for i, a := range args {
		m.Regs[isa.R1+isa.Reg(i)] = a
	}
	m.HostcallFn(&m.Regs)
	return m.Regs[isa.R0]
}

func isErrno(r, errno uint64) bool { return r == negErrno(errno) }

func TestAbiVersion(t *testing.T) {
	_, _, m := testEnv(t, 1, "alice")
	if got := call(m, NumAbiVersion); got != Version {
		t.Fatalf("abi_version = %d, want %d", got, Version)
	}
	if got := call(m, 999); !isErrno(got, kernel.ENOSYS) {
		t.Fatalf("unknown number = %#x, want -ENOSYS", got)
	}
}

func TestClocksDeterministic(t *testing.T) {
	_, _, m1 := testEnv(t, 7, "alice")
	_, _, m2 := testEnv(t, 7, "alice")
	w1 := call(m1, NumClockWall)
	if w2 := call(m2, NumClockWall); w1 != w2 {
		t.Fatalf("same seed+tenant: wall clocks differ (%d vs %d)", w1, w2)
	}
	_, _, m3 := testEnv(t, 7, "bob")
	if w3 := call(m3, NumClockWall); w3 == w1 {
		t.Fatal("different tenants share a wall-clock stream")
	}
	// Monotonic tracks the simulated kernel clock.
	before := call(m1, NumClockMonotonic)
	m1.Kern.Clock.Advance(1_000)
	if after := call(m1, NumClockMonotonic); after <= before {
		t.Fatalf("monotonic did not advance: %d -> %d", before, after)
	}
}

func TestRandomSeeded(t *testing.T) {
	_, _, m1 := testEnv(t, 9, "alice")
	_, _, m2 := testEnv(t, 9, "alice")
	if r := call(m1, NumRandomGet, 64, 33); r != 0 {
		t.Fatalf("random_get = %#x", r)
	}
	if r := call(m2, NumRandomGet, 64, 33); r != 0 {
		t.Fatalf("random_get = %#x", r)
	}
	b1 := make([]byte, 33)
	b2 := make([]byte, 33)
	m1.AS.Mem.ReadBytes(testHeapBase+64, b1)
	m2.AS.Mem.ReadBytes(testHeapBase+64, b2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("same seed: random streams differ")
	}
	if bytes.Equal(b1, make([]byte, 33)) {
		t.Fatal("random_get left the buffer zero")
	}
	// The stream advances: a second fill differs from the first.
	call(m1, NumRandomGet, 64, 33)
	b3 := make([]byte, 33)
	m1.AS.Mem.ReadBytes(testHeapBase+64, b3)
	if bytes.Equal(b1, b3) {
		t.Fatal("random stream did not advance")
	}
}

func TestMarshallingBounds(t *testing.T) {
	_, e, m := testEnv(t, 1, "alice")
	cases := []struct {
		name string
		ret  uint64
	}{
		{"ptr past heap", call(m, NumRandomGet, testHeapSize+1, 8)},
		{"len past heap end", call(m, NumRandomGet, testHeapSize-4, 64)},
		{"wrapping ptr", call(m, NumRandomGet, ^uint64(0)-7, 64)},
	}
	for _, c := range cases {
		if !isErrno(c.ret, kernel.EFAULT) {
			t.Errorf("%s: ret = %#x, want -EFAULT", c.name, c.ret)
		}
	}
	if r := call(m, NumRandomGet, 0, MaxIOBytes+1); !isErrno(r, kernel.EINVAL) {
		t.Errorf("oversized transfer = %#x, want -EINVAL", r)
	}
	if e.BytesOut != 0 {
		t.Fatalf("rejected transfers still counted %d bytes out", e.BytesOut)
	}
}

func TestFdStreams(t *testing.T) {
	_, e, m := testEnv(t, 1, "alice")
	e.BeginRequest([]byte("hello world"))
	// Read the request in two chunks through fd 0.
	if n := call(m, NumFdRead, FdStdin, 0, 5); n != 5 {
		t.Fatalf("fd_read = %d, want 5", n)
	}
	if n := call(m, NumFdRead, FdStdin, 5, 64); n != 6 {
		t.Fatalf("fd_read tail = %d, want 6", n)
	}
	if n := call(m, NumFdRead, FdStdin, 0, 64); n != 0 {
		t.Fatalf("fd_read at EOF = %d, want 0", n)
	}
	// Echo it back through fd 1.
	if n := call(m, NumFdWrite, FdStdout, 0, 11); n != 11 {
		t.Fatalf("fd_write = %d, want 11", n)
	}
	if got := string(e.ResponseBody()); got != "hello world" {
		t.Fatalf("response = %q", got)
	}
	// The next request starts with fresh streams but keeps files.
	e.BeginRequest([]byte("x"))
	if len(e.ResponseBody()) != 0 {
		t.Fatal("stdout not reset between requests")
	}
}

func TestFdFiles(t *testing.T) {
	_, e, m := testEnv(t, 1, "alice")
	m.AS.Mem.WriteBytes(testHeapBase, []byte("log.txt"))
	m.AS.Mem.WriteBytes(testHeapBase+100, []byte("payload"))

	if r := call(m, NumFdOpen, 0, 7, OpenRead); !isErrno(r, kernel.ENOENT) {
		t.Fatalf("open missing = %#x, want -ENOENT", r)
	}
	fd := call(m, NumFdOpen, 0, 7, OpenCreate)
	if int64(fd) < 3 {
		t.Fatalf("open create = %#x", fd)
	}
	if n := call(m, NumFdWrite, fd, 100, 7); n != 7 {
		t.Fatalf("write = %d", n)
	}
	if r := call(m, NumFdClose, fd); r != 0 {
		t.Fatalf("close = %#x", r)
	}
	if r := call(m, NumFdClose, fd); !isErrno(r, kernel.EBADF) {
		t.Fatalf("double close = %#x, want -EBADF", r)
	}
	// Reopen and read back; file state survived the request boundary.
	e.BeginRequest(nil)
	fd = call(m, NumFdOpen, 0, 7, OpenRead)
	if n := call(m, NumFdRead, fd, 200, 64); n != 7 {
		t.Fatalf("readback = %d", n)
	}
	got := make([]byte, 7)
	m.AS.Mem.ReadBytes(testHeapBase+200, got)
	if string(got) != "payload" {
		t.Fatalf("readback = %q", got)
	}
	if r := call(m, NumFdWrite, fd, 100, 7); !isErrno(r, kernel.EBADF) {
		t.Fatalf("write to read-only fd = %#x, want -EBADF", r)
	}
}

func TestFdReadAfterTruncate(t *testing.T) {
	// Regression: fd_open(OpenCreate) truncates a file under a live read
	// fd. The stale offset must clamp to the new length — the unsigned
	// remainder would otherwise underflow and the copy would panic.
	_, _, m := testEnv(t, 1, "alice")
	m.AS.Mem.WriteBytes(testHeapBase, []byte("f"))
	m.AS.Mem.WriteBytes(testHeapBase+100, bytes.Repeat([]byte{'x'}, 20))

	wfd := call(m, NumFdOpen, 0, 1, OpenCreate)
	if n := call(m, NumFdWrite, wfd, 100, 20); n != 20 {
		t.Fatalf("write = %d", n)
	}
	rfd := call(m, NumFdOpen, 0, 1, OpenRead)
	if n := call(m, NumFdRead, rfd, 200, 20); n != 20 {
		t.Fatalf("read = %d", n)
	}
	// Truncate under the live read fd, then read through it again.
	call(m, NumFdOpen, 0, 1, OpenCreate)
	if n := call(m, NumFdRead, rfd, 200, 20); n != 0 {
		t.Fatalf("read after truncate = %#x, want 0 (EOF)", n)
	}
	// The clamped fd keeps working once the file regrows.
	if n := call(m, NumFdWrite, wfd, 100, 5); n != 5 {
		t.Fatalf("regrow write = %d", n)
	}
	if n := call(m, NumFdRead, rfd, 200, 20); n != 5 {
		t.Fatalf("read after regrow = %d, want 5", n)
	}
}

func TestFsQuota(t *testing.T) {
	_, e, m := testEnv(t, 1, "alice")
	e.world.FS = FSQuota{MaxFiles: 2, MaxFDs: 3, MaxBytes: 40, MaxStdoutBytes: 8}
	m.AS.Mem.WriteBytes(testHeapBase, []byte("f1f2f3"))
	m.AS.Mem.WriteBytes(testHeapBase+32, bytes.Repeat([]byte{7}, 64))

	fd1 := call(m, NumFdOpen, 0, 2, OpenCreate)
	fd2 := call(m, NumFdOpen, 2, 2, OpenCreate)
	if int64(fd1) < 0 || int64(fd2) < 0 {
		t.Fatalf("opens = %#x, %#x", fd1, fd2)
	}
	// Third file: entry quota.
	if r := call(m, NumFdOpen, 4, 2, OpenCreate); !isErrno(r, kernel.EDQUOT) {
		t.Fatalf("file 3 = %#x, want -EDQUOT", r)
	}
	// Reopening an existing name is a new fd, not a new file; the fourth
	// simultaneous descriptor trips MaxFDs.
	fd3 := call(m, NumFdOpen, 0, 2, OpenRead)
	if int64(fd3) < 0 {
		t.Fatalf("fd3 = %#x", fd3)
	}
	if r := call(m, NumFdOpen, 2, 2, OpenRead); !isErrno(r, kernel.EDQUOT) {
		t.Fatalf("fd 4 = %#x, want -EDQUOT", r)
	}
	if r := call(m, NumFdClose, fd3); r != 0 {
		t.Fatalf("close = %#x", r)
	}
	// Byte quota: the two names charged 4 bytes, so 36 content bytes fit.
	if n := call(m, NumFdWrite, fd1, 32, 30); n != 30 {
		t.Fatalf("write = %d", n)
	}
	if r := call(m, NumFdWrite, fd2, 32, 7); !isErrno(r, kernel.EDQUOT) {
		t.Fatalf("over-quota write = %#x, want -EDQUOT", r)
	}
	if n := call(m, NumFdWrite, fd2, 32, 6); n != 6 {
		t.Fatalf("fitting write = %d", n)
	}
	// Truncation frees content bytes for reuse.
	call(m, NumFdOpen, 0, 2, OpenCreate)
	if n := call(m, NumFdWrite, fd2, 32, 20); n != 20 {
		t.Fatalf("post-truncate write = %d", n)
	}
	// Stdout cap is per request.
	e.BeginRequest(nil)
	if n := call(m, NumFdWrite, FdStdout, 32, 8); n != 8 {
		t.Fatalf("stdout write = %d", n)
	}
	if r := call(m, NumFdWrite, FdStdout, 32, 1); !isErrno(r, kernel.EDQUOT) {
		t.Fatalf("stdout overflow = %#x, want -EDQUOT", r)
	}
	if e.QuotaRejects != 4 {
		t.Fatalf("QuotaRejects = %d, want 4", e.QuotaRejects)
	}
	// ResetSession returns the footprint to zero.
	e.ResetSession()
	fd := call(m, NumFdOpen, 0, 2, OpenCreate)
	if n := call(m, NumFdWrite, fd, 32, 38); n != 38 {
		t.Fatalf("post-reset write = %d", n)
	}
}

func TestKvSharedStoreTenantIsolation(t *testing.T) {
	m1 := cpu.NewMachine()
	m2 := cpu.NewMachine()
	for _, m := range []*cpu.Machine{m1, m2} {
		if err := m.AS.MapFixed(testHeapBase, testHeapSize, kernel.ProtRead|kernel.ProtWrite); err != nil {
			t.Fatal(err)
		}
	}
	w := NewWorld(3)
	alice := w.NewEnv("alice")
	bob := w.NewEnv("bob")
	alice.Bind(m1, testHeapBase, testHeapSize)
	bob.Bind(m2, testHeapBase, testHeapSize)

	m1.AS.Mem.WriteBytes(testHeapBase, []byte("keysecret"))
	if r := call(m1, NumKvPut, 0, 3, 3, 6); r != 0 {
		t.Fatalf("kv_put = %#x", r)
	}
	if n := call(m1, NumKvGet, 0, 3, 100, 64); n != 6 {
		t.Fatalf("kv_get = %d, want 6", n)
	}
	got := make([]byte, 6)
	m1.AS.Mem.ReadBytes(testHeapBase+100, got)
	if string(got) != "secret" {
		t.Fatalf("kv_get read back %q", got)
	}
	// Same key, same shared store — invisible to the other tenant.
	m2.AS.Mem.WriteBytes(testHeapBase, []byte("key"))
	if r := call(m2, NumKvGet, 0, 3, 100, 64); !isErrno(r, kernel.ENOENT) {
		t.Fatalf("cross-tenant kv_get = %#x, want -ENOENT", r)
	}
	if r := call(m1, NumKvDelete, 0, 3); r != 0 {
		t.Fatalf("kv_delete = %#x", r)
	}
	if r := call(m1, NumKvGet, 0, 3, 100, 64); !isErrno(r, kernel.ENOENT) {
		t.Fatalf("kv_get after delete = %#x, want -ENOENT", r)
	}
}

func TestKvGetTruncationDetectable(t *testing.T) {
	_, _, m := testEnv(t, 1, "alice")
	m.AS.Mem.WriteBytes(testHeapBase, []byte("keysecret"))
	if r := call(m, NumKvPut, 0, 3, 3, 6); r != 0 {
		t.Fatalf("kv_put = %#x", r)
	}
	// Undersized buffer: the full length comes back, only vCap bytes land.
	m.AS.Mem.WriteBytes(testHeapBase+100, bytes.Repeat([]byte{0xee}, 8))
	if n := call(m, NumKvGet, 0, 3, 100, 4); n != 6 {
		t.Fatalf("truncated kv_get = %d, want full length 6", n)
	}
	got := make([]byte, 8)
	m.AS.Mem.ReadBytes(testHeapBase+100, got)
	if string(got[:4]) != "secr" || !bytes.Equal(got[4:], bytes.Repeat([]byte{0xee}, 4)) {
		t.Fatalf("truncated kv_get wrote %q past its capacity", got)
	}
	// Oversized capacity: EINVAL, like every other marshalled length.
	if r := call(m, NumKvGet, 0, 3, 100, MaxIOBytes+1); !isErrno(r, kernel.EINVAL) {
		t.Fatalf("oversized vCap = %#x, want -EINVAL", r)
	}
}

func TestKvQuota(t *testing.T) {
	_, e, m := testEnv(t, 1, "alice")
	e.world.KV = NewKV(KVQuota{MaxEntries: 2, MaxBytes: 64})
	m.AS.Mem.WriteBytes(testHeapBase, []byte("k1k2k3"))
	m.AS.Mem.WriteBytes(testHeapBase+32, bytes.Repeat([]byte{7}, 32))

	if r := call(m, NumKvPut, 0, 2, 32, 8); r != 0 {
		t.Fatalf("put 1 = %#x", r)
	}
	if r := call(m, NumKvPut, 2, 2, 32, 8); r != 0 {
		t.Fatalf("put 2 = %#x", r)
	}
	// Third key: entry quota.
	if r := call(m, NumKvPut, 4, 2, 32, 8); !isErrno(r, kernel.EDQUOT) {
		t.Fatalf("put 3 = %#x, want -EDQUOT", r)
	}
	// Oversized value under the same key: byte quota.
	if r := call(m, NumKvPut, 0, 2, 32, 63); !isErrno(r, kernel.EDQUOT) {
		t.Fatalf("fat put = %#x, want -EDQUOT", r)
	}
	if e.QuotaRejects != 2 {
		t.Fatalf("QuotaRejects = %d, want 2", e.QuotaRejects)
	}
	// Overwrite within quota frees the old bytes first.
	if r := call(m, NumKvPut, 0, 2, 32, 20); r != 0 {
		t.Fatalf("overwrite = %#x", r)
	}
}

// TestKVConcurrentWorkers is the race gate for the world-shared store:
// one serving process hands the same KV to every worker, so several
// goroutines hit it at once — two sharing a tenant, two on their own.
// Run under -race; the final accounting also pins that no update was lost.
func TestKVConcurrentWorkers(t *testing.T) {
	kv := NewKV(KVQuota{MaxEntries: 8, MaxBytes: 1 << 10})
	const rounds = 500
	tenants := []string{"shared", "shared", "solo-a", "solo-b"}
	var wg sync.WaitGroup
	for g, tenant := range tenants {
		wg.Add(1)
		go func(g int, tenant string) {
			defer wg.Done()
			key := []byte{'k', byte('0' + g)}
			val := bytes.Repeat([]byte{byte(g)}, 16)
			dst := make([]byte, 16)
			for i := 0; i < rounds; i++ {
				if errno := kv.Put(tenant, key, val); errno != 0 {
					t.Errorf("%s put = errno %d", tenant, errno)
					return
				}
				if n, errno := kv.Get(tenant, key, dst); errno != 0 || n != len(val) || !bytes.Equal(dst, val) {
					t.Errorf("%s get = %d bytes %v, errno %d", tenant, n, dst, errno)
					return
				}
				kv.Len(tenant)
				kv.Bytes(tenant)
				if i%2 == 0 {
					if errno := kv.Delete(tenant, key); errno != 0 {
						t.Errorf("%s delete = errno %d", tenant, errno)
						return
					}
				}
			}
		}(g, tenant)
	}
	wg.Wait()
	// Every goroutine's last round (odd) left its key in place: 2+16 bytes
	// per key, two keys under the shared tenant.
	for tenant, keys := range map[string]int{"shared": 2, "solo-a": 1, "solo-b": 1} {
		if n, b := kv.Len(tenant), kv.Bytes(tenant); n != keys || b != uint64(keys*18) {
			t.Errorf("%s: %d entries / %d bytes, want %d / %d", tenant, n, b, keys, keys*18)
		}
	}
}

func TestCountersAndCost(t *testing.T) {
	_, e, m := testEnv(t, 1, "alice")
	start := m.Kern.Clock.Now()
	costs := m.Kern.Costs

	call(m, NumClockMonotonic)
	if got := m.Kern.Clock.Now() - start; got != costs.HostcallBase {
		t.Fatalf("scalar call cost = %dns, want %d", got, costs.HostcallBase)
	}
	start = m.Kern.Clock.Now()
	call(m, NumRandomGet, 0, 4096)
	want := costs.HostcallBase + 4*costs.HostcallCopyPerKiB
	if got := m.Kern.Clock.Now() - start; got != want {
		t.Fatalf("4KiB call cost = %dns, want %d", got, want)
	}
	if e.Calls != 2 || e.BytesOut != 4096 || e.BytesIn != 0 {
		t.Fatalf("counters = calls %d in %d out %d", e.Calls, e.BytesIn, e.BytesOut)
	}
}

func TestFaultInjection(t *testing.T) {
	_, e, m := testEnv(t, 1, "alice")
	e.BeginRequest([]byte("body"))

	// FaultErr: exactly one resource call fails, then the request heals.
	e.InjectFault(FaultErr)
	if r := call(m, NumFdRead, FdStdin, 0, 4); !isErrno(r, kernel.EIO) {
		t.Fatalf("faulted read = %#x, want -EIO", r)
	}
	if r := call(m, NumFdRead, FdStdin, 0, 4); r != 4 {
		t.Fatalf("post-fault read = %d, want 4", r)
	}
	// Scalar calls are never the faulted "resource call".
	e.InjectFault(FaultErr)
	if r := call(m, NumClockMonotonic); int64(r) < 0 {
		t.Fatalf("clock faulted: %#x", r)
	}

	// FaultQuota: puts are refused for the whole request and accounted.
	e.BeginRequest(nil)
	e.InjectFault(FaultQuota)
	m.AS.Mem.WriteBytes(testHeapBase, []byte("kv"))
	if r := call(m, NumKvPut, 0, 2, 0, 2); !isErrno(r, kernel.EDQUOT) {
		t.Fatalf("quota-faulted put = %#x, want -EDQUOT", r)
	}
	if e.QuotaRejects != 1 {
		t.Fatalf("QuotaRejects = %d, want 1", e.QuotaRejects)
	}

	// FaultSlow: same result, fatter bill.
	e.BeginRequest(nil)
	before := m.Kern.Clock.Now()
	call(m, NumClockMonotonic)
	normal := m.Kern.Clock.Now() - before
	e.InjectFault(FaultSlow)
	before = m.Kern.Clock.Now()
	call(m, NumClockMonotonic)
	if slow := m.Kern.Clock.Now() - before; slow != normal+SlowFaultNs {
		t.Fatalf("slow call cost = %dns, want %d", slow, normal+SlowFaultNs)
	}
	// BeginRequest clears the arm.
	e.BeginRequest(nil)
	before = m.Kern.Clock.Now()
	call(m, NumClockMonotonic)
	if got := m.Kern.Clock.Now() - before; got != normal {
		t.Fatalf("fault leaked across BeginRequest: %dns", got)
	}
}

// roundTripHarness builds the hostcall round-trip fixture shared by the
// benchmark and the allocation gate: a guest that calls into the verified
// gate for 1 KiB of seeded randomness marshalled back into linear memory.
// run executes one round trip; it has already run once, so the fetch and
// decode caches are warm.
func roundTripHarness(tb testing.TB) (run func(), e *Env, m *cpu.Machine) {
	tb.Helper()
	_, e, m = testEnv(tb, 42, "bench")
	const stackBase, stackSize = uint64(0x20_0000), uint64(0x1_0000)
	if err := m.AS.MapFixed(stackBase, stackSize, kernel.ProtRead|kernel.ProtWrite); err != nil {
		tb.Fatal(err)
	}

	asm := isa.NewBuilder(0x1000)
	asm.Label("__start")
	asm.MovImm(isa.R0, NumRandomGet)
	asm.MovImm(isa.R1, 4096) // offset of the target buffer
	asm.MovImm(isa.R2, 1024) // bytes per round trip
	asm.Call("__hostcall")
	asm.Halt()
	asm.Label("__hostcall")
	asm.Hostcall()
	asm.Ret()
	prog := asm.Build()
	if err := m.LoadProgram(prog); err != nil {
		tb.Fatal(err)
	}
	entry := prog.Entry("__start")

	ip := cpu.NewInterp(m)
	run = func() {
		m.Regs[isa.SP] = stackBase + stackSize
		m.PC = entry
		if res := ip.Run(100); res.Reason != cpu.StopHalt {
			tb.Fatalf("stop = %v", res.Reason)
		}
		if int64(m.Regs[isa.R0]) < 0 {
			tb.Fatalf("hostcall failed: %#x", m.Regs[isa.R0])
		}
	}
	run()
	return run, e, m
}

// TestHostcallRoundTripZeroAllocs is the allocation gate for the
// marshalling fast path: a warm guest->host->guest round trip must not
// allocate.
func TestHostcallRoundTripZeroAllocs(t *testing.T) {
	run, _, _ := roundTripHarness(t)
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("hostcall round trip allocates %.1f allocs/run, want 0", allocs)
	}
}

// BenchmarkHostcallRoundTrip measures a full guest->host->guest round
// trip through the interpreter: call into the verified gate, dispatch,
// 1 KiB of seeded randomness marshalled back into linear memory, return.
func BenchmarkHostcallRoundTrip(b *testing.B) {
	run, e, m := roundTripHarness(b)

	b.ReportAllocs()
	simStart := m.Kern.Clock.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	if e.Calls != uint64(b.N)+1 {
		b.Fatalf("calls = %d, want %d", e.Calls, b.N+1)
	}
	b.ReportMetric(float64(e.BytesOut)/float64(e.Calls), "marshalled-B/op")
	// Cost-modeled time per round trip: what the simulated platform billed
	// (gate transition + HostcallBase + per-KiB copy), not host wall time.
	b.ReportMetric(float64(m.Kern.Clock.Now()-simStart)/float64(b.N), "sim-ns/op")
}
