package hostcall

import (
	"sync"

	"hfi/internal/kernel"
)

// KVQuota bounds one tenant's footprint in the shared store. Zero means
// unlimited (tests); the serving layer always sets both.
type KVQuota struct {
	MaxEntries int    // live keys per tenant
	MaxBytes   uint64 // sum of key+value bytes per tenant
}

// DefaultKVQuota is the serving-layer default: roomy enough for the
// stateful workloads, small enough that a runaway tenant hits the wall
// long before it distorts a neighbor's simulated timeline.
func DefaultKVQuota() KVQuota { return KVQuota{MaxEntries: 4096, MaxBytes: 4 << 20} }

type kvTenant struct {
	entries map[string][]byte
	bytes   uint64
}

// KV is the world-shared key-value store. Keys are namespaced by tenant:
// tenants share the store's machinery but can never observe — or evict —
// each other's data. All mutations enforce the per-tenant quota and
// report rejections so the serving layer can account them. One World —
// hence one KV — is shared by every worker of a serving process, so each
// method is one critical section under mu: lookup, quota check and
// accounting never interleave with another worker's.
type KV struct {
	mu      sync.Mutex
	tenants map[string]*kvTenant
	quota   KVQuota
}

// NewKV returns an empty store enforcing q per tenant.
func NewKV(q KVQuota) *KV {
	return &KV{tenants: make(map[string]*kvTenant), quota: q}
}

// tenant returns name's namespace, creating it on first use; kv.mu held.
func (kv *KV) tenant(name string) *kvTenant {
	t, ok := kv.tenants[name]
	if !ok {
		t = &kvTenant{entries: make(map[string][]byte)}
		kv.tenants[name] = t
	}
	return t
}

// Get copies up to len(dst) bytes of the value for key into dst,
// returning the FULL value length — callers compare it against their
// capacity to detect a truncated read — or a kernel errno (>0) when the
// key is absent.
func (kv *KV) Get(tenant string, key, dst []byte) (int, uint64) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	t, ok := kv.tenants[tenant]
	if !ok {
		return 0, kernel.ENOENT
	}
	v, ok := t.entries[string(key)] // alloc-free map probe
	if !ok {
		return 0, kernel.ENOENT
	}
	copy(dst, v)
	return len(v), 0
}

// Put stores a copy of val under key, enforcing the tenant quota. A
// kernel.EDQUOT return means the write was refused with no side effect.
func (kv *KV) Put(tenant string, key, val []byte) uint64 {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	t := kv.tenant(tenant)
	need := uint64(len(key) + len(val))
	old, exists := t.entries[string(key)]
	freed := uint64(0)
	if exists {
		freed = uint64(len(key) + len(old))
	}
	q := kv.quota
	if q.MaxBytes > 0 && t.bytes-freed+need > q.MaxBytes {
		return kernel.EDQUOT
	}
	if q.MaxEntries > 0 && !exists && len(t.entries) >= q.MaxEntries {
		return kernel.EDQUOT
	}
	t.entries[string(key)] = append([]byte(nil), val...)
	t.bytes = t.bytes - freed + need
	return 0
}

// Delete removes key, returning kernel.ENOENT when it was absent.
func (kv *KV) Delete(tenant string, key []byte) uint64 {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	t, ok := kv.tenants[tenant]
	if !ok {
		return kernel.ENOENT
	}
	v, ok := t.entries[string(key)]
	if !ok {
		return kernel.ENOENT
	}
	delete(t.entries, string(key))
	t.bytes -= uint64(len(key) + len(v))
	return 0
}

// Len returns the tenant's live entry count (for tests and /statsz).
func (kv *KV) Len(tenant string) int {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if t, ok := kv.tenants[tenant]; ok {
		return len(t.entries)
	}
	return 0
}

// Bytes returns the tenant's quota-charged byte footprint.
func (kv *KV) Bytes(tenant string) uint64 {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if t, ok := kv.tenants[tenant]; ok {
		return t.bytes
	}
	return 0
}
