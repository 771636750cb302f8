package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"time"

	"autovalidate/internal/cluster"
	"autovalidate/internal/core"
	"autovalidate/internal/datagen"
	"autovalidate/internal/index"
	"autovalidate/internal/journal"
	"autovalidate/internal/obs"
	"autovalidate/internal/pattern"
	"autovalidate/internal/registry"
	"autovalidate/internal/service"
)

// The served lake: the Enterprise profile at 60 tables (707 columns),
// indexed with τ = 8 and served with coverage target m = 5, as the
// repository's quick-scale experiments do. It is fixed rather than
// drawn from --seed: the index is the system under test, the traffic
// is the input.
const (
	lakeTables = 60
	lakeSeed   = 1
	lakeTau    = 8
	lakeM      = 5
	// pollInterval is avserve's default follower -poll.
	pollInterval = 2 * time.Second
)

// serveOptions are the inference defaults every member serves with.
func serveOptions() core.Options {
	opt := core.DefaultOptions()
	opt.M = lakeM
	opt.Tau = lakeTau
	return opt
}

// node is one in-process service member behind a loopback listener.
type node struct {
	svc *service.Server
	// handler is svc.Handler(), built once, for in-process replay.
	handler http.Handler
	url     string
	srv     *http.Server
	jrn     *journal.Journal
}

// topology is a leader, a follower and a gateway configured as the
// shipped binaries run them by default: journal on, registry file on,
// every trace sampled, monitor.DefaultPolicy, structured request logs.
type topology struct {
	opt      core.Options
	leader   *node
	follower *node
	follow   *cluster.Follower
	gw       *cluster.Gateway
	gwURL    string
	gwSrv    *http.Server
	logFile  *os.File
	// fixture is the client used during set-up.
	fixture *http.Client

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// errUnevenRing reports a gateway ring on which some member owns too
// little of the hash space to home the streams asked of it.
var errUnevenRing = errors.New("gateway ring too uneven to place the streams")

// startTopology runs the whole set-up: generate the lake, build the
// index, start the servers, register the streams and finish the
// follower bootstrap. Stream names are chosen so that each stream lands
// on the member it asks for. The gateway's ring depends on the members'
// URLs, so for some pairs of loopback ports one member owns almost
// none of it; set-up then starts over on new ports.
func startTopology(dir string, streams []*stream) (*topology, error) {
	for attempt := 0; ; attempt++ {
		top, err := tryTopology(filepath.Join(dir, fmt.Sprint(attempt)), streams)
		if !errors.Is(err, errUnevenRing) || attempt == 4 {
			return top, err
		}
	}
}

func tryTopology(dir string, streams []*stream) (top *topology, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	top = &topology{fixture: newClient()}
	defer func() {
		if err != nil {
			top.close()
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	top.cancel = cancel

	lake := datagen.Generate(datagen.Enterprise(lakeTables, lakeSeed))
	enum := pattern.DefaultEnumOptions()
	enum.MaxTokens = lakeTau
	idx := index.Build(lake.Columns(), index.BuildOptions{Enum: enum})
	top.opt = serveOptions()
	if idx.Enum.MaxTokens != top.opt.Tau {
		return top, fmt.Errorf("index built with τ=%d, want %d", idx.Enum.MaxTokens, top.opt.Tau)
	}

	top.logFile, err = os.Create(filepath.Join(dir, "servers.log"))
	if err != nil {
		return top, err
	}
	tracer := func() *obs.Tracer { return obs.NewTracer(obs.TracerConfig{SampleEvery: 1}) }

	leaderJrn, err := journal.Open(filepath.Join(dir, "leader-journal"), journal.Options{})
	if err != nil {
		return top, err
	}
	leaderSvc, err := service.New(service.Config{
		Index:        idx,
		Options:      &top.opt,
		Registry:     registry.New(),
		RegistryPath: filepath.Join(dir, "rules.avr"),
		DeltaLog:     index.NewDeltaLog(64),
		Logger:       obs.NewLogger(top.logFile, "avserve"),
		Tracer:       tracer(),
		Journal:      leaderJrn,
	})
	if err != nil {
		leaderJrn.Close()
		return top, err
	}
	ldr, err := cluster.NewLeader(leaderSvc)
	if err != nil {
		leaderJrn.Close()
		return top, err
	}
	top.leader, err = serveNode(leaderSvc, ldr.Handler(), leaderJrn)
	if err != nil {
		leaderJrn.Close()
		return top, err
	}
	leaderURL, err := url.Parse(top.leader.url)
	if err != nil {
		return top, err
	}

	followerJrn, err := journal.Open(filepath.Join(dir, "follower-journal"), journal.Options{})
	if err != nil {
		return top, err
	}
	followerSvc, err := service.New(service.Config{
		Index:        index.New(index.DefaultShards()),
		Options:      &top.opt,
		StartUnready: true,
		WriteProxy:   leaderURL,
		Logger:       obs.NewLogger(top.logFile, "avserve"),
		Tracer:       tracer(),
		Journal:      followerJrn,
	})
	if err != nil {
		followerJrn.Close()
		return top, err
	}
	top.follower, err = serveNode(followerSvc, followerSvc.Handler(), followerJrn)
	if err != nil {
		followerJrn.Close()
		return top, err
	}
	top.follow, err = cluster.NewFollower(cluster.FollowerConfig{
		Leader:       leaderURL,
		Service:      followerSvc,
		PollInterval: pollInterval,
		Logger:       obs.NewLogger(top.logFile, "avserve"),
	})
	if err != nil {
		return top, err
	}
	if err := top.follow.CatchUp(ctx); err != nil {
		return top, fmt.Errorf("follower bootstrap: %w", err)
	}

	followerURL, err := url.Parse(top.follower.url)
	if err != nil {
		return top, err
	}
	top.gw, err = cluster.NewGateway(cluster.GatewayConfig{
		Members: []*url.URL{leaderURL, followerURL},
		Logger:  obs.NewLogger(top.logFile, "avgateway"),
		Tracer:  tracer(),
	})
	if err != nil {
		return top, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return top, err
	}
	top.gwURL = "http://" + ln.Addr().String()
	top.gwSrv = &http.Server{Handler: top.gw.Handler()}
	go top.gwSrv.Serve(ln)
	top.gw.CheckOnce(ctx)

	for i, st := range streams {
		if err := top.nameStream(st, i); err != nil {
			return top, err
		}
		var info service.StreamInfo
		body, _ := json.Marshal(service.StreamPutRequest{Train: st.train})
		if err := top.call(http.MethodPut, top.leader.url+"/streams/"+st.name, body, &info); err != nil {
			return top, fmt.Errorf("registering %s: %w", st.name, err)
		}
		if info.Domain != nil {
			st.domainName = info.Domain.Name
		}
		// The rule /validate?fingerprint= names is learned once, as a
		// recurring pipeline's first run does.
		var inf service.InferResponse
		body, _ = json.Marshal(service.InferRequest{Values: st.train})
		if err := top.call(http.MethodPost, top.leader.url+"/infer", body, &inf); err != nil {
			return top, fmt.Errorf("inferring %s: %w", st.name, err)
		}
		if inf.Fingerprint != st.fingerprint {
			return top, fmt.Errorf("stream %s: /infer fingerprint %s, want %s", st.name, inf.Fingerprint, st.fingerprint)
		}
	}
	// The registered streams reach the follower with its next
	// replication round; set-up ends once it has them.
	if err := top.follow.CatchUp(ctx); err != nil {
		return top, fmt.Errorf("follower registry catch-up: %w", err)
	}
	if got, want := followerSvc.Registry().Len(), len(streams); got != want {
		return top, fmt.Errorf("follower has %d streams after catch-up, want %d", got, want)
	}

	top.wg.Add(2)
	go func() { defer top.wg.Done(); top.follow.Run(ctx) }()
	go func() { defer top.wg.Done(); top.gw.Run(ctx) }()
	return top, nil
}

// serveNode starts a member on a loopback port.
func serveNode(svc *service.Server, h http.Handler, jrn *journal.Journal) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{svc: svc, handler: svc.Handler(), url: "http://" + ln.Addr().String(), jrn: jrn}
	n.srv = &http.Server{Handler: h}
	go n.srv.Serve(ln)
	return n, nil
}

// nameStream picks the first name of the form <k>-<domain> (for a drift
// stream <k>-<domain>-to-<drift domain>) that the gateway routes to the
// wanted member: the leader for drift streams, alternately leader and
// follower for clean ones. The probe is a GET through the gateway,
// which answers with the member it chose.
func (t *topology) nameStream(st *stream, i int) error {
	want := t.follower
	if st.leaderHome || i%2 == 0 {
		want = t.leader
	}
	label := st.domain
	if st.driftFrom != "" {
		label += "-to-" + st.driftFrom
	}
	for k := 0; k < 256; k++ {
		// The varying part leads: the gateway's FNV ring hash barely
		// moves for a change in a key's last bytes.
		name := fmt.Sprintf("%03d-%s", k, label)
		resp, err := t.fixture.Get(t.gwURL + "/streams/" + name)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.Header.Get("X-Autovalidate-Member") == want.url {
			st.name, st.home = name, want
			return nil
		}
	}
	return fmt.Errorf("no stream name for %s routes to %s: %w", st.domain, want.url, errUnevenRing)
}

// call sends one set-up request and decodes a 200 answer into out.
func (t *topology) call(method, u string, body []byte, out any) error {
	req, err := http.NewRequest(method, u, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.fixture.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %d %s", method, u, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// converged waits up to two replication rounds for the follower to
// reach the leader's index generation and registry epoch.
func (t *topology) converged() error {
	deadline := time.Now().Add(2*pollInterval + time.Second)
	for {
		st := t.follow.Status()
		gen := t.leader.svc.Generation()
		if st.Generation == gen && st.RegistryEpoch == t.leader.svc.Registry().Epoch() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower at generation %d (registry epoch %d), leader at %d (epoch %d)",
				st.Generation, st.RegistryEpoch, gen, t.leader.svc.Registry().Epoch())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close stops every server and background loop and waits for them.
func (t *topology) close() {
	if t.cancel != nil {
		t.cancel()
	}
	t.wg.Wait()
	t.fixture.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if t.gwSrv != nil {
		t.gwSrv.Shutdown(ctx)
	}
	for _, n := range []*node{t.follower, t.leader} {
		if n == nil {
			continue
		}
		if err := n.srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			n.srv.Close()
		}
		n.jrn.Close()
	}
	if t.logFile != nil {
		t.logFile.Close()
	}
}
