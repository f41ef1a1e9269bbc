package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"time"

	"lhg/internal/obs"
)

// Cross-process singleflight. The in-process flight group already
// guarantees one campaign per key per daemon; the lease extends that to a
// fleet sharing one data directory. The leader of a flight writes its
// claim to a temp file and hard-links it to <hash>.lease — the link fails
// with EEXIST for everyone but one process in the fleet, and a lease file
// never exists without its body — and every loser waits for either the
// report file to appear or the lease to die, then re-reads the store. A
// crashed leader is survived by the TTL: the next contender removes the
// expired lease and takes over.
//
// Release is read-check-remove rather than atomic, so a leader that
// overstays its TTL could in principle remove its successor's lease; the
// TTL is sized well above the campaign timeout precisely so an overstayed
// lease means a crashed or wedged process, not a slow one.
var (
	mLeaseAcquired  = obs.NewCounter("store.lease.acquired")
	mLeaseContested = obs.NewCounter("store.lease.contested")
	mLeaseTakeovers = obs.NewCounter("store.lease.takeovers")
	mLeaseReleased  = obs.NewCounter("store.lease.released")
	mLeaseWaits     = obs.NewCounter("store.lease.waits")
)

// DefaultLeaseTTL bounds how long a dead leader can block a key.
const DefaultLeaseTTL = 5 * time.Minute

// leaseFile is the on-disk claim.
type leaseFile struct {
	Owner   string `json:"owner"`
	Expires int64  `json:"expires_unix_ns"`
}

// Lease is a held claim on one key.
type Lease struct {
	s     *Store
	hash  string
	owner string
}

func (s *Store) leasePath(hash string) string {
	return s.path(hash) + ".lease" // <hash>.json.lease, invisible to the index scan
}

// Acquire claims the right to compute key. It returns (lease, true) to
// exactly one contender fleet-wide; everyone else gets (nil, false) and
// should WaitValue. An expired claim (crashed leader) is removed and
// contested again, so acquisition needs at most a few attempts.
func (s *Store) Acquire(key string, ttl time.Duration) (*Lease, bool, error) {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	hash := Key(key)
	path := s.leasePath(hash)
	owner := fmt.Sprintf("%d-%x", os.Getpid(), rand.Uint64())
	data, _ := json.Marshal(leaseFile{Owner: owner, Expires: time.Now().Add(ttl).UnixNano()})
	// The claim is complete on disk before it becomes visible: a temp file
	// (its name does not end in .json, so the index scan skips it) is
	// linked to the lease path, which is atomic and fails if a lease
	// exists.
	tmp, err := writeTemp(s.dir, hash+".lease.tmp-*", data)
	if err != nil {
		mErrors.Inc()
		return nil, false, fmt.Errorf("store: write lease %s: %w", hash, err)
	}
	defer os.Remove(tmp)
	for attempt := 0; attempt < 3; attempt++ {
		err := os.Link(tmp, path)
		if err == nil {
			mLeaseAcquired.Inc()
			return &Lease{s: s, hash: hash, owner: owner}, true, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			mErrors.Inc()
			return nil, false, fmt.Errorf("store: lease %s: %w", hash, err)
		}
		// Held. Expired or corrupt claims are from crashed leaders: remove
		// and contend again (the link arbitrates the removal race).
		var lf leaseFile
		held, rerr := os.ReadFile(path)
		if rerr == nil && json.Unmarshal(held, &lf) == nil && time.Now().UnixNano() < lf.Expires {
			mLeaseContested.Inc()
			return nil, false, nil
		}
		if os.IsNotExist(rerr) {
			continue // released between link and read: contend again
		}
		os.Remove(path)
		mLeaseTakeovers.Inc()
	}
	mLeaseContested.Inc()
	return nil, false, nil
}

// Release gives the claim up. Only the owner's claim is removed, so a
// takeover that already replaced the lease is left alone.
func (l *Lease) Release() {
	data, err := os.ReadFile(l.s.leasePath(l.hash))
	if err != nil {
		return
	}
	var lf leaseFile
	if json.Unmarshal(data, &lf) == nil && lf.Owner == l.owner {
		os.Remove(l.s.leasePath(l.hash))
		mLeaseReleased.Inc()
	}
}

// WaitValue blocks until key's value appears in the store (the fleet-wide
// leader finished and published), the claim on it dies without a value
// (found=false: the caller should re-contend with Acquire), or ctx ends.
func (s *Store) WaitValue(ctx context.Context, key string, poll time.Duration) (json.RawMessage, bool, error) {
	if poll <= 0 {
		poll = 20 * time.Millisecond
	}
	mLeaseWaits.Inc()
	hash := Key(key)
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		if v, ok, err := s.Get(key); err != nil {
			return nil, false, err
		} else if ok {
			return v, true, nil
		}
		var lf leaseFile
		data, err := os.ReadFile(s.leasePath(hash))
		alive := err == nil && json.Unmarshal(data, &lf) == nil && time.Now().UnixNano() < lf.Expires
		if !alive {
			// One final read closes the publish-then-release window.
			v, ok, err := s.Get(key)
			return v, ok, err
		}
		select {
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-t.C:
		}
	}
}
