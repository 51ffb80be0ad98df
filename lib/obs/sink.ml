type writer = Null | Buffer of Buffer.t | File of out_channel

type t = {
  writer : writer;
  mutable emitted : int;
  mutable closed : bool;
}

let make writer = { writer; emitted = 0; closed = false }

let null = make Null

let buffer () = make (Buffer (Buffer.create 4096))

let file path = make (File (open_out path))

let emit t make_event =
  match t.writer with
  | Null -> ()
  | writer ->
    if t.closed then invalid_arg "Sink.emit: sink is closed";
    let line = Json.to_string (make_event ()) in
    (match writer with
    | Null -> ()
    | Buffer b ->
      Buffer.add_string b line;
      Buffer.add_char b '\n'
    | File oc ->
      output_string oc line;
      output_char oc '\n');
    t.emitted <- t.emitted + 1

let emitted t = t.emitted

let contents t =
  match t.writer with
  | Buffer b -> Buffer.contents b
  | _ -> invalid_arg "Sink.contents: not a buffer sink"

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.writer with
    | Null | Buffer _ -> ()
    | File oc -> close_out oc
  end
