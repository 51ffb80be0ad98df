(* L003 negative fixture: one-line functions build fresh state on every
   call, so none of these is a shared cell *)
let table () = Hashtbl.create 16

let counter start = ref start

let buffer ~size = Buffer.create size
