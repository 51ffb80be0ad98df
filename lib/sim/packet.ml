open! Import

let data = 0

let control = 1

let ack = 2

(* A free slot has kind -1 and holds the next free id in [token]. *)
let free_kind = -1

type pool = {
  clock : Engine.clock;
  mutable kinds : int array;
  mutable srcs : int array;
  mutable dsts : int array;
  mutable tokens : int array;
  mutable hop_counts : int array;
  mutable bits_col : float array;
  mutable created : float array;
  mutable enqueued : float array;
  mutable free_head : int; (* -1 when every slot is live *)
  mutable live : int;
}

let initial_capacity = 256

(* Chain slots [lo, hi) onto the free list ahead of [next]. *)
let link_free p ~lo ~hi ~next =
  for i = lo to hi - 1 do
    p.kinds.(i) <- free_kind;
    p.tokens.(i) <- (if i + 1 < hi then i + 1 else next)
  done

let create clock =
  let n = initial_capacity in
  let p =
    { clock;
      kinds = Array.make n free_kind;
      srcs = Array.make n 0;
      dsts = Array.make n 0;
      tokens = Array.make n 0;
      hop_counts = Array.make n 0;
      bits_col = Array.make n 0.;
      created = Array.make n 0.;
      enqueued = Array.make n 0.;
      free_head = 0;
      live = 0 }
  in
  link_free p ~lo:0 ~hi:n ~next:(-1);
  p

(* Out of line so [alloc] stays allocation-free: only the doubling
   allocates, and a simulation stops doubling in warm-up. *)
let[@inline never] grow p =
  let n = Array.length p.kinds in
  let cap = 2 * n in
  let ints a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 n;
    b
  in
  let floats a =
    let b = Array.make cap 0. in
    Array.blit a 0 b 0 n;
    b
  in
  p.kinds <- ints p.kinds;
  p.srcs <- ints p.srcs;
  p.dsts <- ints p.dsts;
  p.tokens <- ints p.tokens;
  p.hop_counts <- ints p.hop_counts;
  p.bits_col <- floats p.bits_col;
  p.created <- floats p.created;
  p.enqueued <- floats p.enqueued;
  link_free p ~lo:n ~hi:cap ~next:p.free_head;
  p.free_head <- n

let[@inline] alloc p ~kind ~src ~dst ~token ~bits =
  if p.free_head < 0 then grow p;
  let i = p.free_head in
  p.free_head <- p.tokens.(i);
  p.kinds.(i) <- kind;
  p.srcs.(i) <- src;
  p.dsts.(i) <- dst;
  p.tokens.(i) <- token;
  p.hop_counts.(i) <- 0;
  p.bits_col.(i) <- bits;
  p.created.(i) <- p.clock.Engine.now;
  p.live <- p.live + 1;
  i
[@@hot_path]

let free p i =
  if p.kinds.(i) = free_kind then invalid_arg "Packet.free: id not live";
  p.kinds.(i) <- free_kind;
  p.tokens.(i) <- p.free_head;
  p.free_head <- i;
  p.live <- p.live - 1
[@@hot_path]

let live p = p.live

let kind p i = p.kinds.(i)

let src p i = p.srcs.(i)

let dst p i = p.dsts.(i)

let token p i = p.tokens.(i)

let hops p i = p.hop_counts.(i)

let add_hop p i = p.hop_counts.(i) <- p.hop_counts.(i) + 1

let bits p i = p.bits_col.(i)

let bits_column p = p.bits_col

let created_column p = p.created

let enqueued_column p = p.enqueued
