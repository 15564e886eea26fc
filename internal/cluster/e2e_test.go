// Multi-process end-to-end tests: real esteem-serve binaries on
// localhost, one coordinator and several workers, exercising the
// acceptance gate of the distributed sweep — a cluster sweep is
// byte-identical to a standalone sweep of the same spec, including
// after SIGKILLing a worker mid-sweep.
package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/metricsz"
)

var (
	serveBin  string
	buildDir  string
	buildOnce sync.Once
	buildErr  error
)

// builtServeBin builds esteem-serve on first use — lazily, so -short
// runs and benchmark-only runs never pay the build.
func builtServeBin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "cluster-e2e-")
		if err != nil {
			buildErr = err
			return
		}
		buildDir = dir
		serveBin = filepath.Join(dir, "esteem-serve")
		out, err := exec.Command("go", "build", "-o", serveBin, "repro/cmd/esteem-serve").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("building esteem-serve: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return serveBin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

// node is one spawned esteem-serve process.
type node struct {
	cmd *exec.Cmd
	url string
}

// startNode spawns esteem-serve with the given extra args on a free
// port and waits for it to answer /healthz.
func startNode(t *testing.T, name string, extra ...string) *node {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-log-level", "warn",
	}, extra...)
	cmd := exec.Command(builtServeBin(t), args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", name, err)
	}
	n := &node{cmd: cmd}
	t.Cleanup(func() {
		if n.cmd.Process != nil {
			n.cmd.Process.Kill()
			n.cmd.Wait()
		}
	})
	deadline := time.Now().Add(15 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("%s did not become healthy", name)
		}
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			n.url = "http://" + strings.TrimSpace(string(b))
			if resp, err := http.Get(n.url + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return n
				}
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func (n *node) pid() int { return n.cmd.Process.Pid }

// sweepSpec is the shared job body: 3 single-core workloads x 2
// techniques = 6 units. measure scales the per-unit simulator work.
func sweepSpec(seed uint64, measure int) string {
	return fmt.Sprintf(`{
		"config": {"Cores":1, "WarmupInstr":5000, "MeasureInstr":%d, "IntervalCycles":10000, "Seed":%d},
		"benchmarks": [["gcc"],["gobmk"],["nekbone"]],
		"techniques": ["baseline","esteem"]
	}`, measure, seed)
}

// jobView mirrors the fields of GET /v1/jobs/{id} the tests consume.
type jobView struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
	Units []struct {
		Label string `json:"label"`
		Key   string `json:"key"`
	} `json:"units"`
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
}

// submitJob posts spec and returns the job id.
func submitJob(t *testing.T, server, spec string) string {
	t.Helper()
	resp, err := http.Post(server+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %s decode err %v", resp.Status, err)
	}
	return v.ID
}

// waitJob polls until the job terminates, failing the test unless it
// lands in "done".
func waitJob(t *testing.T, server, id string, timeout time.Duration) jobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var v jobView
		getJSON(t, server+"/v1/jobs/"+id, &v)
		switch v.State {
		case "done":
			return v
		case "failed", "canceled":
			t.Fatalf("job %s %s: %s", id, v.State, v.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q after %s", id, v.State, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// fetchArtifacts downloads every unit's artifact bytes by key.
func fetchArtifacts(t *testing.T, server string, v jobView) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, u := range v.Units {
		resp, err := http.Get(server + "/v1/artifacts/" + u.Key)
		if err != nil {
			t.Fatalf("artifact %s: %v", u.Key[:12], err)
		}
		body := new(bytes.Buffer)
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("artifact %s (%s): %s", u.Key[:12], u.Label, resp.Status)
		}
		out[u.Key] = body.Bytes()
	}
	return out
}

// statusView mirrors GET /v1/cluster/status.
type statusView struct {
	Workers []struct {
		URL  string `json:"url"`
		Held int    `json:"held_leases"`
	} `json:"workers"`
}

// runStandalone computes the reference artifact set for spec on a
// fresh standalone server.
func runStandalone(t *testing.T, spec string, timeout time.Duration) map[string][]byte {
	t.Helper()
	n := startNode(t, "standalone")
	v := waitJob(t, n.url, submitJob(t, n.url, spec), timeout)
	arts := fetchArtifacts(t, n.url, v)
	n.cmd.Process.Kill()
	n.cmd.Wait()
	return arts
}

// TestClusterSweepByteIdentity: the acceptance gate's happy path. A
// coordinator with two workers must produce artifacts byte-identical
// to a standalone server's for the same spec, with every simulation
// computed exactly once across the cluster even when two identical
// jobs are submitted concurrently.
func TestClusterSweepByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	spec := sweepSpec(11, 20000)
	want := runStandalone(t, spec, 60*time.Second)

	coord := startNode(t, "coordinator", "-role", "coordinator", "-lease-ttl", "10s", "-heartbeat", "500ms")
	w1 := startNode(t, "worker1", "-role", "worker", "-join", coord.url)
	w2 := startNode(t, "worker2", "-role", "worker", "-join", coord.url)

	// Two identical jobs in flight at once: their units share keys, so
	// the lease table must coalesce them (cluster-wide single-flight).
	idA := submitJob(t, coord.url, spec)
	idB := submitJob(t, coord.url, spec)
	vA := waitJob(t, coord.url, idA, 120*time.Second)
	vB := waitJob(t, coord.url, idB, 120*time.Second)

	got := fetchArtifacts(t, coord.url, vA)
	if len(got) != len(want) {
		t.Fatalf("cluster produced %d artifacts, standalone %d", len(got), len(want))
	}
	for key, wantBytes := range want {
		gotBytes, ok := got[key]
		if !ok {
			t.Fatalf("cluster job missing key %s", key[:12])
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Errorf("artifact %s differs between cluster and standalone", key[:12])
		}
	}
	for _, u := range vB.Units {
		if _, ok := want[u.Key]; !ok {
			t.Errorf("job B derived unexpected key %s", u.Key[:12])
		}
	}

	// Exactly-once compute: across both workers, simulations computed
	// must equal the number of unique units (duplicate jobs and
	// replicated reads add zero).
	var computed uint64
	for _, w := range []*node{w1, w2} {
		var st metricsz.Snapshot
		getJSON(t, w.url+"/metrics?format=json", &st)
		computed += st.Counters["esteem_worker_sims_computed_total"]
	}
	if computed != uint64(len(want)) {
		t.Errorf("cluster computed %d simulations for %d unique units", computed, len(want))
	}

	var mv metricsz.Snapshot
	getJSON(t, coord.url+"/metrics?format=json", &mv)
	if got := mv.Counters["esteem_cluster_tasks_submitted_total"]; got != uint64(len(want)) {
		t.Errorf("tasks_submitted_total = %d, want %d (duplicate jobs must coalesce)", got, len(want))
	}
	if got := mv.Gauges["esteem_cluster_workers_live"]; got != 2 {
		t.Errorf("workers_live = %v, want 2", got)
	}

	// Fleet aggregation must agree with the per-worker scrapes: the
	// fleet's worker sim total is exactly the sum over members.
	var fleet cluster.FleetView
	getJSON(t, coord.url+"/v1/cluster/metrics?format=json", &fleet)
	if got := fleet.Fleet.Counters["esteem_worker_sims_computed_total"]; got != computed {
		t.Errorf("fleet sims_computed_total = %d, want the members' sum %d", got, computed)
	}
	for _, m := range fleet.Members {
		if m.Error != "" {
			t.Errorf("fleet member %s unreachable: %s", m.URL, m.Error)
		}
	}
}

// TestClusterWorkerKill: the acceptance gate's failure path. With
// three workers and a short lease TTL, SIGKILL a worker while it
// holds a lease mid-sweep; the job must still complete with artifacts
// byte-identical to a standalone run, and the coordinator's metrics
// must show the membership expiry and the re-issued leases.
func TestClusterWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	// Heavier units (~hundreds of ms each) so the kill reliably lands
	// while the victim is executing.
	spec := sweepSpec(23, 3_000_000)
	want := runStandalone(t, spec, 120*time.Second)

	coord := startNode(t, "coordinator",
		"-role", "coordinator", "-lease-ttl", "2s", "-heartbeat", "250ms")
	workers := map[string]*node{}
	for i := 1; i <= 3; i++ {
		w := startNode(t, fmt.Sprintf("worker%d", i), "-role", "worker", "-join", coord.url)
		workers[w.url] = w
	}

	var before metricsz.Snapshot
	getJSON(t, coord.url+"/metrics?format=json", &before)

	id := submitJob(t, coord.url, spec)

	// Wait until some worker holds a lease, then SIGKILL it.
	var victim *node
	deadline := time.Now().Add(30 * time.Second)
	for victim == nil {
		if time.Now().After(deadline) {
			t.Fatal("no worker ever held a lease")
		}
		var sv statusView
		getJSON(t, coord.url+"/v1/cluster/status", &sv)
		for _, w := range sv.Workers {
			if w.Held > 0 {
				victim = workers[w.URL]
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := syscall.Kill(victim.pid(), syscall.SIGKILL); err != nil {
		t.Fatalf("killing victim: %v", err)
	}
	victim.cmd.Wait()
	t.Logf("killed worker %s mid-sweep", victim.url)

	v := waitJob(t, coord.url, id, 180*time.Second)
	got := fetchArtifacts(t, coord.url, v)
	for key, wantBytes := range want {
		gotBytes, ok := got[key]
		if !ok {
			t.Fatalf("missing artifact %s after worker kill", key[:12])
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Errorf("artifact %s differs after worker kill", key[:12])
		}
	}

	// Scrape-delta assertions: the kill must be visible in the
	// coordinator's cluster metrics.
	var after metricsz.Snapshot
	getJSON(t, coord.url+"/metrics?format=json", &after)
	delta := func(name string) uint64 { return after.Counters[name] - before.Counters[name] }
	if d := delta("esteem_cluster_workers_expired_total"); d < 1 {
		t.Errorf("workers_expired_total delta = %d, want >= 1", d)
	}
	if d := delta("esteem_cluster_leases_expired_total"); d < 1 {
		t.Errorf("leases_expired_total delta = %d, want >= 1", d)
	}
	if d := delta("esteem_cluster_leases_reissued_total"); d < 1 {
		t.Errorf("leases_reissued_total delta = %d, want >= 1", d)
	}
	if d := delta("esteem_cluster_tasks_completed_total"); d != uint64(len(want)) {
		t.Errorf("tasks_completed_total delta = %d, want %d", d, len(want))
	}
	if got := after.Gauges["esteem_cluster_workers_live"]; got != 2 {
		t.Errorf("workers_live after kill = %v, want 2", got)
	}

	// The event journal must tell the same story causally: the victim's
	// expiry, and for at least one task a lease-expired followed (by
	// sequence number) by a lease-reissued.
	var journal struct {
		Events []struct {
			Seq    int64  `json:"seq"`
			Kind   string `json:"kind"`
			Worker string `json:"worker"`
			Key    string `json:"key"`
		} `json:"events"`
		NextSeq int64 `json:"next_seq"`
	}
	getJSON(t, coord.url+"/v1/cluster/events", &journal)
	if len(journal.Events) == 0 || journal.NextSeq <= 1 {
		t.Fatalf("event journal empty after kill scenario: %+v", journal)
	}
	expiredWorker := false
	expiredAt := map[string]int64{} // key -> seq of its first lease-expired
	reissued := false
	for _, ev := range journal.Events {
		switch ev.Kind {
		case "worker-expired":
			if ev.Worker == victim.url {
				expiredWorker = true
			}
		case "lease-expired":
			if _, ok := expiredAt[ev.Key]; !ok {
				expiredAt[ev.Key] = ev.Seq
			}
		case "lease-reissued":
			if seq, ok := expiredAt[ev.Key]; ok && ev.Seq > seq {
				reissued = true
			}
		}
	}
	if !expiredWorker {
		t.Errorf("journal has no worker-expired event for the victim %s", victim.url)
	}
	if len(expiredAt) == 0 {
		t.Error("journal has no lease-expired event")
	}
	if !reissued {
		t.Error("journal never re-issued an expired lease (expiry -> reissue causality missing)")
	}
}
