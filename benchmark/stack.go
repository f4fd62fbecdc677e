package main

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/products"
	"repro/internal/rdf"
	"repro/internal/resultcache"
	"repro/internal/seviri"
	"repro/internal/shard"
	"repro/internal/strabon"
)

// Serving-tier settings: cmd/benchserve's defaults, the production
// topology the issue names.
const (
	resultCacheEntries = 1024
	resultCacheBytes   = 64 << 20
	admissionMax       = 8
	admissionQueue     = 64
)

// stack is the system under test, assembled the way cmd/firewatch and
// cmd/stsparqld assemble it: a sharded store behind a core.Service and
// a served endpoint with result cache and admission gate.
type stack struct {
	store   *shard.Store
	svc     *core.Service
	ep      *strabon.Endpoint
	srv     *http.Server
	served  chan struct{}
	base    string
	clients []*http.Client
}

// scenarioConfig only matters to NewServiceWithStore's own scenario,
// which buildStack replaces; it is kept at the paper's defaults.
var scenarioConfig = seviri.DefaultScenarioConfig()

// buildStack is what setup_s times: world generation and auxiliary-data
// load (inside NewServiceWithStore), the scenario swap, the bulk load
// of the prior archive, endpoint and server start, and one keep-alive
// connection per closed-loop client.
func buildStack(in *inputs, clients int) (*stack, error) {
	st := shard.New(shard.Config{Slices: storeSlices, Width: time.Hour, Epoch: archiveStart})
	svc, err := core.NewServiceWithStore(worldSeed, scenarioConfig, st)
	if err != nil {
		return nil, err
	}
	// The service generated its own scenario from worldSeed; run the
	// benchmark's instead. The scan geometry depends on the region only,
	// so the chains built over the first simulator stay valid.
	svc.Sim = seviri.NewSimulator(in.scenario(svc.Sim.Scenario.World))
	svc.Workers = pipelineWorkers

	st.InsertAll(in.archiveGroups()...)

	ep := strabon.NewEndpoint(st)
	ep.Results = resultcache.New(resultCacheEntries, resultCacheBytes)
	ep.Admission = strabon.NewAdmission(admissionMax, admissionQueue)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &stack{
		store: st, svc: svc, ep: ep,
		srv:    &http.Server{Handler: ep},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	for c := 0; c < clients; c++ {
		cl := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
		s.clients = append(s.clients, cl)
		resp, err := cl.Get(s.base + "/stats")
		if err == nil {
			_, err = finish(resp)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("benchmark: connect: %w", err)
		}
	}
	return s, nil
}

// close stops the server and waits for its goroutine.
func (s *stack) close() {
	for _, cl := range s.clients {
		cl.CloseIdleConnections()
	}
	_ = s.srv.Close()
	<-s.served
}

// archiveGroups RDF-izes the prior archive, one group per product, for
// one bulk InsertAll.
func (in *inputs) archiveGroups() [][]rdf.Triple {
	groups := make([][]rdf.Triple, len(in.archive))
	for i, p := range in.archive {
		groups[i] = p.TriplesInto(make([]rdf.Triple, 0, 9*len(p.Hotspots)+5))
	}
	return groups
}

// insertProduct writes one product the way the pipeline writer does.
func (s *stack) insertProduct(p *products.Product) {
	s.store.InsertAll(p.TriplesInto(nil))
}
