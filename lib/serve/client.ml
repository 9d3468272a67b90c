(* Blocking client for the serve protocol — the substrate of the
   [scifinder client] subcommands, the serve test suite and the bench
   harness's synthetic clients. *)

exception Protocol_error of string

type t = {
  fd : Unix.file_descr;
  dec : Frame.decoder;
  buf : Bytes.t;  (* read buffer: one per connection, so clients on
                     different domains never share it *)
  mutable next_id : int;
  mutable stash : Proto.response list;  (* out-of-order responses *)
}

let make fd =
  { fd; dec = Frame.decoder (); buf = Bytes.create 65536; next_id = 1;
    stash = [] }

let connect_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e -> (try Unix.close fd with _ -> ()); raise e);
  make fd

let connect_tcp ~host ~port =
  let addr =
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> Unix.inet_addr_of_string host
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (addr, port))
   with e -> (try Unix.close fd with _ -> ()); raise e);
  make fd

let connect_sockaddr sa =
  let domain =
    match sa with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | _ -> Unix.PF_INET
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd sa
   with e -> (try Unix.close fd with _ -> ()); raise e);
  make fd

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring fd s off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let send t ?session request =
  let id = t.next_id in
  t.next_id <- id + 1;
  write_all t.fd
    (Frame.encode (Proto.encode_request { Proto.id; session; request }));
  id

(* One response straight off the socket, bypassing the stash. *)
let rec read_response t =
  match Frame.next t.dec with
  | `Frame payload ->
    (match Proto.decode_response payload with
     | Ok r -> r
     | Error m -> raise (Protocol_error ("bad response: " ^ m)))
  | `Error e -> raise (Protocol_error (Frame.error_message e))
  | `Await ->
    (match Unix.read t.fd t.buf 0 (Bytes.length t.buf) with
     | 0 -> raise (Protocol_error "connection closed by server")
     | n ->
       Frame.feed t.dec (Bytes.sub_string t.buf 0 n);
       read_response t
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_response t)

let recv t =
  match t.stash with
  | r :: rest ->
    t.stash <- rest;
    r
  | [] -> read_response t

let recv_id t id =
  let rec scan acc = function
    | [] -> None
    | r :: rest ->
      if Proto.response_id r = id then begin
        t.stash <- List.rev_append acc rest;
        Some r
      end
      else scan (r :: acc) rest
  in
  match scan [] t.stash with
  | Some r -> r
  | None ->
    let rec wait () =
      let r = read_response t in
      if Proto.response_id r = id then r
      else begin
        t.stash <- t.stash @ [ r ];
        wait ()
      end
    in
    wait ()

let call t ?session request =
  let id = send t ?session request in
  recv_id t id
