type sack_block = { block_lo : int; block_hi : int }

type Net.Packet.payload +=
  | Tcp_data of { seq : int; sent_at : float }
  | Tcp_ack of {
      cum_ack : int;
      blocks : sack_block list;
      echo : float;
      ece : bool;
      rwnd : int;
    }
  | Tcp_syn of { options : int; sent_at : float }
  | Tcp_syn_ack of { options : int; rwnd : int; sent_at : float }
  | Tcp_rst of { seq : int }
  | Tcp_probe of { seq : int; sent_at : float }

let max_sack_blocks = 3

let data_size = 1000

let ack_size = 40

let no_rwnd = -1

let rwnd_field_bits = 6

let rwnd_field_max = (1 lsl rwnd_field_bits) - 1
