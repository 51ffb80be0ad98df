open! Import

type t = {
  node : Node.t;
  next_hops : int array; (* per destination: link id, -1 for none *)
  flooder : Flooder.t;
}

let create graph node =
  { node;
    next_hops = Array.make (Graph.node_count graph) (-1);
    flooder = Flooder.create graph ~owner:node }

let node t = t.node

let install_tree t tree = Spf_tree.next_hops_into tree t.next_hops

let table t = t.next_hops

let flooder t = t.flooder
