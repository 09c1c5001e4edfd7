module Pb = Fortress_replication.Pb
module Sign = Fortress_crypto.Sign

type t =
  | Server of Pb.msg
  | Client_request of { id : string; cmd : string; client : Fortress_net.Address.t }
  | Client_reply of {
      reply : Pb.reply;
      proxy_index : int;
      proxy_signature : Sign.signature;
    }

let over_sign_payload ~reply ~proxy_index =
  let module P = Fortress_crypto.Payload in
  let { Pb.request_id; response; server_index; signature } = reply in
  let signature = (signature :> string) in
  let p =
    P.create "fortress-oversign"
      ~fields:
        (P.str_width request_id + P.str_width response + P.int_width server_index
       + P.hex_width signature + P.int_width proxy_index)
  in
  P.add_str p request_id;
  P.add_str p response;
  P.add_int p server_index;
  P.add_hex p signature;
  P.add_int p proxy_index;
  P.contents p

let is_probe_command cmd = String.starts_with ~prefix:"probe:" cmd
