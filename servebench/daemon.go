package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// daemon is one adhocd process launched by the benchmark.
type daemon struct {
	name   string
	cmd    *exec.Cmd
	addr   string // http://host:port
	exited chan struct{}
	log    *os.File
}

// startDaemon execs adhocd with args, on the CPUs cpus, on a loopback port
// chosen by the kernel and waits until it prints its listening address.
// back is the mask the forking thread returns to.
func startDaemon(bin, name, logDir string, args []string, cpus, back *cpuMask) (*daemon, error) {
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = logf
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := startPinned(cpus, back, cmd.Start); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{name: name, cmd: cmd, exited: make(chan struct{}), log: logf}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			fmt.Fprintln(logf, sc.Text())
			if a, ok := strings.CutPrefix(sc.Text(), "adhocd: listening on "); ok {
				addr <- a
			}
		}
		io.Copy(io.Discard, out)
		cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.addr = "http://" + a
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("%s exited before listening (see %s)", name, logf.Name())
	case <-time.After(30 * time.Second):
		d.stop(false)
		return nil, fmt.Errorf("%s did not start listening within 30s", name)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop ends the daemon and waits for it: SIGTERM with a bounded drain when
// graceful, SIGKILL otherwise.
func (d *daemon) stop(graceful bool) {
	sig := syscall.SIGKILL
	if graceful {
		sig = syscall.SIGTERM
	}
	d.cmd.Process.Signal(sig)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
}

// deployment is the set of shards one setup brought up, with the
// workload's networks and world registered and answering.
type deployment struct {
	shards []*daemon
	entry  int // shard the load is sent to
	owner  int // shard owning the registered networks (== entry on one shard)
	// gossipWait is how long set-up waited for the shards' gossip to
	// agree on the ring: a tick phase, not work, so setup_s leaves it out.
	gossipWait time.Duration
}

func (dp *deployment) stop(graceful bool) {
	for _, d := range dp.shards {
		d.stop(graceful)
	}
}

// setUp launches the workload's daemon(s) and registers its networks and
// world, returning once each answers a route.
func (b *bench) setUp() (*deployment, error) {
	w := b.w
	dp := &deployment{}
	fail := func(err error) (*deployment, error) {
		dp.stop(false)
		return nil, err
	}
	for i := 0; i < w.shards; i++ {
		args := w.bootArgs()
		name := "adhocd"
		if w.shards > 1 {
			name = fmt.Sprintf("shard-%d", i)
			args = append(args, "-cluster", "-cluster-name", name, "-token-key", b.keyPath,
				"-cluster-gossip-interval", "50ms")
			if i > 0 {
				args = append(args, "-cluster-peers", dp.shards[0].addr)
			}
		}
		d, err := startDaemon(b.adhocd, name, b.runDir, args, b.daemonCPUs, b.genCPUs)
		if err != nil {
			return fail(err)
		}
		dp.shards = append(dp.shards, d)
	}
	c := b.ctl
	if w.shards > 1 {
		t0 := time.Now()
		if err := converge(c, dp.shards); err != nil {
			return fail(err)
		}
		dp.gossipWait = time.Since(t0)
	}
	for _, spec := range w.nets {
		body, _ := json.Marshal(spec)
		resp, err := c.Post(dp.shards[0].addr+"/v1/networks", "application/json", bytes.NewReader(body))
		if err != nil {
			return fail(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
			return fail(fmt.Errorf("register %s: HTTP %d", spec.Desc(), resp.StatusCode))
		}
		if w.shards > 1 {
			owner := resp.Header.Get("X-Adhoc-Shard")
			for i, d := range dp.shards {
				if d.name == owner {
					dp.owner = i
				}
			}
			dp.entry = (dp.owner + 1) % len(dp.shards)
		}
	}
	if w.world != nil {
		body, _ := json.Marshal(map[string]any{
			"name": worldName, "network_id": w.nets[0].ID(), "schedule": w.worldSpec(b.seed)})
		if err := ctlPost(c, dp.shards[0].addr+"/v1/worlds", body, http.StatusCreated); err != nil {
			return fail(err)
		}
	}
	// Answering: one route on every served network through the entry shard.
	entry := dp.shards[dp.entry].addr
	plain := []byte(`{"src":0,"dst":1}`)
	probes := map[string][]byte{"/v1/route": plain}
	for _, spec := range w.nets {
		probes[netPath(spec, "route")] = plain
	}
	if w.world != nil {
		probes["/v1/worlds/"+worldName+"/route"] = []byte(`{"src":0,"dst":1,"hops_per_epoch":-1}`)
	}
	for path, body := range probes {
		if err := ctlPost(c, entry+path, body, http.StatusOK); err != nil {
			return fail(err)
		}
	}
	return dp, nil
}

func ctlPost(c *http.Client, url string, body []byte, want int) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("POST %s: HTTP %d %s", url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return nil
}

// converge waits until every shard sees all of them on one ring version.
func converge(c *http.Client, shards []*daemon) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		versions := map[string]bool{}
		full := true
		for _, d := range shards {
			var info struct {
				RingVersion string     `json:"ring_version"`
				Members     []struct{} `json:"members"`
			}
			resp, err := c.Get(d.addr + "/v1/cluster")
			if err != nil {
				return err
			}
			err = json.NewDecoder(resp.Body).Decode(&info)
			resp.Body.Close()
			if err != nil {
				return err
			}
			full = full && len(info.Members) == len(shards)
			versions[info.RingVersion] = true
		}
		if full && len(versions) == 1 {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("cluster did not converge within 20s")
}
