package metrics

// Fleet aggregates the distributed-serving-tier counters of one front-end:
// shard RPC traffic and reliability (retries, circuit breaking), health-probe
// outcomes, routing decisions forced away from unhealthy shards, and
// crash re-dispatches. All fields are safe for concurrent use.
type Fleet struct {
	// RPCCalls counts shard RPCs issued (first attempts); RPCRetries counts
	// re-sends after a transient failure; RPCFailures counts calls that
	// exhausted their attempts (or were refused by an open circuit).
	RPCCalls    Counter
	RPCRetries  Counter
	RPCFailures Counter
	// RPCLatency measures per-call wall time, successful attempts only.
	RPCLatency LatencyHist
	// SearchRequestBytes sums the /rpc/search request frames sent, once per
	// attempt; SearchResponseBytes the response frames received.
	SearchRequestBytes  Counter
	SearchResponseBytes Counter

	// HealthProbes counts probe rounds issued per shard; HealthTrips counts
	// healthy→unhealthy transitions observed by the prober.
	HealthProbes Counter
	HealthTrips  Counter
	// CircuitOpens counts closed→open breaker transitions; RouteUnhealthy
	// counts routing decisions redirected because the preferred shard was
	// unhealthy or draining.
	CircuitOpens   Counter
	RouteUnhealthy Counter
	// ShardSheds counts searches a shard turned away with an overload shed
	// (rate/queue/deadline). A shed means the shard is saturated, not down:
	// the front-end surfaces it without marking the shard unhealthy.
	ShardSheds Counter

	// Redispatches counts journaled-aborted queries the front-end
	// resubmitted to a healthy shard after confirming the original crashed.
	// The shards' own recovery counters reach the front-end's stats through
	// service.Stats.Recovery.
	Redispatches Counter
}

// FleetSnapshot is an immutable copy of a Fleet's state.
type FleetSnapshot struct {
	RPCCalls    int64        `json:"rpc_calls"`
	RPCRetries  int64        `json:"rpc_retries"`
	RPCFailures int64        `json:"rpc_failures"`
	RPCLatency  LatencyStats `json:"rpc_latency"`

	SearchRequestBytes  int64 `json:"search_request_bytes"`
	SearchResponseBytes int64 `json:"search_response_bytes"`

	HealthProbes   int64 `json:"health_probes"`
	HealthTrips    int64 `json:"health_trips"`
	CircuitOpens   int64 `json:"circuit_opens"`
	RouteUnhealthy int64 `json:"route_unhealthy"`
	ShardSheds     int64 `json:"shard_sheds"`

	Redispatches int64 `json:"redispatches"`
}

// Snapshot copies the current values.
func (f *Fleet) Snapshot() FleetSnapshot {
	return FleetSnapshot{
		RPCCalls:       f.RPCCalls.Value(),
		RPCRetries:     f.RPCRetries.Value(),
		RPCFailures:    f.RPCFailures.Value(),
		RPCLatency:     f.RPCLatency.Snapshot(),
		HealthProbes:   f.HealthProbes.Value(),
		HealthTrips:    f.HealthTrips.Value(),
		CircuitOpens:   f.CircuitOpens.Value(),
		RouteUnhealthy: f.RouteUnhealthy.Value(),
		ShardSheds:     f.ShardSheds.Value(),
		Redispatches:   f.Redispatches.Value(),

		SearchRequestBytes:  f.SearchRequestBytes.Value(),
		SearchResponseBytes: f.SearchResponseBytes.Value(),
	}
}
