package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"refocus/internal/arch"
	"refocus/internal/faults"
	"refocus/internal/nn"
	"refocus/internal/sim"
)

func TestCachePutGet(t *testing.T) {
	c := newReportCache(4)
	r := arch.Report{Config: "x", Network: "n", FPS: 42}
	if _, ok := c.Get("k"); ok {
		t.Error("hit on empty cache")
	}
	c.Put("k", r)
	got, ok := c.Get("k")
	if !ok || got != r {
		t.Errorf("get after put: ok=%v got=%+v", ok, got)
	}
	if c.Len() != 1 {
		t.Errorf("len %d, want 1", c.Len())
	}
}

func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := newReportCache(2)
	c.Put("a", arch.Report{Config: "a"})
	c.Put("b", arch.Report{Config: "b"})
	// Touch "a" so "b" is the LRU entry when "c" arrives.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	c.Put("c", arch.Report{Config: "c"})
	if _, ok := c.Get("b"); ok {
		t.Error("least recently used entry survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("recently used entry evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("newest entry missing")
	}
	if c.Len() != 2 {
		t.Errorf("len %d, want capacity 2", c.Len())
	}
}

func TestCacheUpdateRefreshesEntry(t *testing.T) {
	c := newReportCache(2)
	c.Put("a", arch.Report{FPS: 1})
	c.Put("b", arch.Report{FPS: 2})
	c.Put("a", arch.Report{FPS: 3}) // update, not insert
	if c.Len() != 2 {
		t.Fatalf("update grew the cache to %d", c.Len())
	}
	got, _ := c.Get("a")
	if got.FPS != 3 {
		t.Errorf("updated value lost: %+v", got)
	}
	// "a" was refreshed, so inserting "d" must evict "b".
	c.Put("d", arch.Report{FPS: 4})
	if _, ok := c.Get("b"); ok {
		t.Error("refresh did not update recency")
	}
}

func TestCacheMinimumCapacity(t *testing.T) {
	c := newReportCache(0)
	c.Put("a", arch.Report{})
	c.Put("b", arch.Report{})
	if c.Len() != 1 {
		t.Errorf("zero-capacity cache should clamp to 1, len %d", c.Len())
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := newReportCache(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (w+i)%32)
				c.Put(key, arch.Report{FPS: float64(i)})
				c.Get(key)
				c.Len()
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Errorf("cache exceeded capacity: %d", c.Len())
	}
}

// TestCacheKey: the cache key is stable across construction paths of
// the same design point, distinguishes networks, design points and
// fault sets, and ends with the network hash.
func TestCacheKey(t *testing.T) {
	key := func(cfg arch.SystemConfig, fs *faults.FaultSet, net nn.Network) string {
		t.Helper()
		cfgHash, err := arch.ConfigHash(cfg)
		if err != nil {
			t.Fatal(err)
		}
		point, err := pointKey(cfgHash, fs)
		if err != nil {
			t.Fatal(err)
		}
		return cacheKey(point, nn.MustNetworkHash(net))
	}
	fromPreset := key(arch.FB(), nil, nn.ResNet50())
	// The same design point expressed as a full serialized config.
	data, err := arch.ConfigJSON(arch.FB())
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := sim.LoadConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if fromFile := key(reloaded, nil, nn.ResNet50()); fromFile != fromPreset {
		t.Errorf("same design point keyed differently:\n%s\n%s", fromPreset, fromFile)
	}
	if key(arch.FB(), nil, nn.AlexNet()) == fromPreset {
		t.Error("different networks share a key")
	}
	if key(arch.FF(), nil, nn.ResNet50()) == fromPreset {
		t.Error("different design points share a key")
	}
	if !strings.HasSuffix(fromPreset, "|"+nn.MustNetworkHash(nn.ResNet50())) {
		t.Errorf("key should end with the network hash: %s", fromPreset)
	}
	fs := faults.FaultSet{DeadRFCUs: []int{0}}
	if key(arch.FB(), &fs, nn.ResNet50()) == fromPreset {
		t.Error("degraded and healthy reports share a key")
	}
	// An inline spec identical to the registry entry shares the key.
	data, err = nn.NetworkJSON(nn.ResNet50())
	if err != nil {
		t.Fatal(err)
	}
	inline, err := nn.ParseNetwork(data)
	if err != nil {
		t.Fatal(err)
	}
	if fromInline := key(arch.FB(), nil, inline); fromInline != fromPreset {
		t.Errorf("inline spec of a registry network keyed differently:\n%s\n%s", fromInline, fromPreset)
	}
}

// recordingStore is an LRU that remembers every key it was asked to
// store.
type recordingStore struct {
	*reportCache
	mu   sync.Mutex
	puts []string
}

func (r *recordingStore) Put(key string, rep arch.Report) {
	r.mu.Lock()
	r.puts = append(r.puts, key)
	r.mu.Unlock()
	r.reportCache.Put(key, rep)
}

// TestCacheKeysExtendRouteKey: every cache key the evaluate path writes
// is the request's RouteKey joined with one network hash, so routing by
// RouteKey sends all of a request's cache keys to one shard.
func TestCacheKeysExtendRouteKey(t *testing.T) {
	for _, req := range []EvaluateRequest{
		{Preset: "fb"},
		{Preset: "ff", Network: "BERT-base"},
		{Preset: "fb", Faults: json.RawMessage(`{"DeadRFCUs": [1]}`)},
		{Config: json.RawMessage(`{"Base": "fb", "Name": "x", "M": 32}`), NetworkSpec: json.RawMessage(tinySpec)},
	} {
		store := &recordingStore{reportCache: newReportCache(64)}
		s := New(Config{Store: store})
		resp, err := s.evaluatePoint(context.Background(), req)
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		route, err := RouteKey(req, SpecLimits{})
		if err != nil {
			t.Fatal(err)
		}
		if len(store.puts) != len(resp.NetworkHashes) {
			t.Fatalf("%+v: %d cache writes for %d networks", req, len(store.puts), len(resp.NetworkHashes))
		}
		for i, h := range resp.NetworkHashes {
			if want := cacheKey(route, h); store.puts[i] != want {
				t.Errorf("%+v: cache key %d = %s, want %s", req, i, store.puts[i], want)
			}
		}
	}
}
