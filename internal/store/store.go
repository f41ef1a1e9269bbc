// Package store is the persistent content-addressed report store behind the
// serve layer: verification reports, budget analyses and flood results keyed
// by the SHA-256 of their canonical request key, written atomically
// (temp+rename) under one data directory. Several daemon processes may share
// a directory — that is the point: a campaign computed by any backend is
// visible to the whole fleet, survives restarts, and the lease protocol in
// lease.go extends the in-process singleflight guarantee across processes.
//
// Layout: every entry is one file <hex(sha256(key))>.json holding an
// envelope {key, kind, value}; in-flight leader claims are side files
// <hash>.lease. The envelope repeats the key so the directory is
// self-describing (and a hash collision, however unlikely, is detected
// rather than silently served).
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"lhg/internal/obs"
)

var (
	mHits   = obs.NewCounter("store.hits")
	mMisses = obs.NewCounter("store.misses")
	mWrites = obs.NewCounter("store.writes")
	mErrors = obs.NewCounter("store.errors")
)

// Envelope is the on-disk frame around one stored value.
type Envelope struct {
	// Key is the canonical request key the content hash was derived from.
	Key string `json:"key"`
	// Kind names the value's type ("verify", "budget", "flood") for
	// directory archaeology; Get does not interpret it.
	Kind string `json:"kind"`
	// Value is the stored result, verbatim.
	Value json.RawMessage `json:"value"`
}

// Store is one process's handle on a (possibly shared) data directory. The
// in-memory index caches which content hashes are known present so repeat
// hits skip the not-exist syscall churn; an index miss still reads through
// to disk, because another process may have written the entry after Open.
type Store struct {
	dir string

	mu    sync.Mutex
	index map[string]struct{} // content hashes known to exist on disk
}

// Key hashes a canonical request key to its content address.
func Key(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// Open creates dir if needed and scans it into the index.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty data directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, index: make(map[string]struct{})}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		s.index[strings.TrimSuffix(name, ".json")] = struct{}{}
	}
	return s, nil
}

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// Len reports the number of entries the index knows about.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, hash+".json")
}

// Get returns the stored value for key. A miss is not an error; a present
// but unreadable or key-mismatched entry is (and counts as store.errors).
func (s *Store) Get(key string) (json.RawMessage, bool, error) {
	hash := Key(key)
	data, err := os.ReadFile(s.path(hash))
	if err != nil {
		if os.IsNotExist(err) {
			mMisses.Inc()
			return nil, false, nil
		}
		mErrors.Inc()
		return nil, false, fmt.Errorf("store: read %s: %w", hash, err)
	}
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		mErrors.Inc()
		return nil, false, fmt.Errorf("store: corrupt entry %s: %w", hash, err)
	}
	if env.Key != key {
		mErrors.Inc()
		return nil, false, fmt.Errorf("store: entry %s holds key %q, want %q", hash, env.Key, key)
	}
	s.mu.Lock()
	s.index[hash] = struct{}{}
	s.mu.Unlock()
	mHits.Inc()
	return env.Value, true, nil
}

// Put stores value under key atomically: the envelope is written to a
// private temp file in the same directory and renamed into place, so a
// concurrent reader (or a crash) sees either the whole entry or none of it.
func (s *Store) Put(key, kind string, value json.RawMessage) error {
	hash := Key(key)
	data, err := json.Marshal(Envelope{Key: key, Kind: kind, Value: value})
	if err != nil {
		mErrors.Inc()
		return fmt.Errorf("store: encode %s: %w", hash, err)
	}
	tmp, err := writeTemp(s.dir, hash+".tmp-*", data)
	if err != nil {
		mErrors.Inc()
		return fmt.Errorf("store: write %s: %w", hash, err)
	}
	if err := os.Rename(tmp, s.path(hash)); err != nil {
		os.Remove(tmp)
		mErrors.Inc()
		return fmt.Errorf("store: publish %s: %w", hash, err)
	}
	s.mu.Lock()
	s.index[hash] = struct{}{}
	s.mu.Unlock()
	mWrites.Inc()
	return nil
}

// writeTemp writes data to a new temp file in dir named after pattern and
// returns its path. Publishers move the complete file into place (rename
// for entries, link for leases), so no reader sees a partial write.
func writeTemp(dir, pattern string, data []byte) (string, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return "", err
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}

// Contains reports whether the index knows key without touching disk.
func (s *Store) Contains(key string) bool {
	hash := Key(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[hash]
	return ok
}
