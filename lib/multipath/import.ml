(* Substrate aliases opened by every module in this library. *)

module Node = Routing_topology.Node
module Line_type = Routing_topology.Line_type
module Link = Routing_topology.Link
module Graph = Routing_topology.Graph
module Traffic_matrix = Routing_topology.Traffic_matrix
module Dijkstra = Routing_spf.Dijkstra
module Spf_tree = Routing_spf.Spf_tree
module Int_heap = Routing_spf.Int_heap
module Metric = Routing_metric.Metric
module Queueing = Routing_metric.Queueing
module Units = Routing_metric.Units
module Update = Routing_flooding.Update
module Broadcast = Routing_flooding.Broadcast
