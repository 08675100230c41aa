package serve

import (
	"crypto/sha256"
	"io"
	"net/http"
	"sync"
)

// A request's content digest is a pure function of its kind, its body
// bytes, the default engine and digestVersion, and the last two are
// fixed for the life of a process. So once a process has accepted a
// body, a byte-identical repeat of it needs no second decode, Build,
// canonicalization or digest: a BodyMemo remembers what the first one
// derived. Replicas memoize the four solve routes (digest, admission
// labels, revision requirement) and the front memoizes its routing key.
// /v1/delta is not memoized (its digest depends on the revision store),
// nor /v1/batch (decoded as a whole), nor any body that failed
// validation.

// bodyMemoEntries caps every BodyMemo.
const bodyMemoEntries = 4096

// BodyKey is the memo key of one request body: SHA-256 over the solve
// kind and the raw body bytes.
type BodyKey [sha256.Size]byte

// HashBody returns the memo key of a body posted to /v1/<kind>. Kind
// names hold no zero byte, so kind‖0‖body splits one way only.
func HashBody(kind string, body []byte) BodyKey {
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write(body)
	var k BodyKey
	h.Sum(k[:0])
	return k
}

// BodyMemo is a bounded map from BodyKey to what a tier derived from
// the body. It holds two generations of at most half the capacity
// each: inserts go to the current one, a full current generation
// replaces the old one, and a hit in the old generation moves the entry
// back to the current one, so recently used bodies survive and the
// memo never holds more than its capacity. The zero value is ready to
// use; maps are made on first insert, not preallocated.
type BodyMemo[V any] struct {
	mu       sync.Mutex
	cur, old map[BodyKey]V
}

// Get returns the value memoized for k.
func (m *BodyMemo[V]) Get(k BodyKey) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.cur[k]; ok {
		return v, true
	}
	v, ok := m.old[k]
	if ok {
		delete(m.old, k)
		m.insert(k, v)
	}
	return v, ok
}

// Put memoizes v for k.
func (m *BodyMemo[V]) Put(k BodyKey, v V) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.old, k)
	m.insert(k, v)
}

func (m *BodyMemo[V]) insert(k BodyKey, v V) {
	if m.cur == nil {
		m.cur = make(map[BodyKey]V)
	}
	m.cur[k] = v
	if len(m.cur) >= bodyMemoEntries/2 {
		m.old, m.cur = m.cur, nil
	}
}

// Len returns the number of memoized bodies.
func (m *BodyMemo[V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cur) + len(m.old)
}

// ReadBody reads a request body of at most limit bytes into one buffer:
// sized from Content-Length when the client sent it, grown by
// io.ReadAll only when the length is unknown. A longer body is an
// error, as http.MaxBytesReader reports it.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	if n := r.ContentLength; n >= 0 && n <= limit {
		buf := make([]byte, n)
		_, err := io.ReadFull(body, buf)
		return buf, err
	}
	return io.ReadAll(body)
}
