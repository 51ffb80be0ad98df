(* Substrate aliases opened by every module in this library. *)

module Node = Routing_topology.Node
module Link = Routing_topology.Link
module Graph = Routing_topology.Graph
module Traffic_matrix = Routing_topology.Traffic_matrix
module Rng = Routing_stats.Rng
module Metric = Routing_metric.Metric
module Domain_pool = Routing_metric.Domain_pool
module Flow_sim = Routing_sim.Flow_sim
module Script = Routing_sim.Script
module Measure = Routing_sim.Measure
module Obs_json = Routing_obs.Json
module Obs_metrics = Routing_obs.Metrics
module Tracer = Routing_obs.Tracer
