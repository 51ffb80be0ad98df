(* Substrate aliases opened by every module in this library. *)

module Node = Routing_topology.Node
module Line_type = Routing_topology.Line_type
module Link = Routing_topology.Link
module Graph = Routing_topology.Graph
module Traffic_matrix = Routing_topology.Traffic_matrix
module Dijkstra = Routing_spf.Dijkstra
module Spf_tree = Routing_spf.Spf_tree
module Radix_queue = Routing_spf.Radix_queue
module Metric = Routing_metric.Metric
module Queueing = Routing_metric.Queueing
module Units = Routing_metric.Units
module Flooder = Routing_flooding.Flooder
module Broadcast = Routing_flooding.Broadcast
